package crypt

import "testing"

// TestFastEngineIdentityEncryption: the latency-only provider must be
// internally consistent — what a write stores, a read recovers — even
// though it computes no real cryptography. Identity encryption is the
// simplest involution, and it means a fast-mode device holds plaintext.
func TestFastEngineIdentityEncryption(t *testing.T) {
	fe := NewFastEngine()
	if fe.Functional() {
		t.Fatal("FastEngine claims to be functional")
	}
	var plain [BlockSize]byte
	for i := range plain {
		plain[i] = byte(i * 7)
	}
	iv := MakeIV(1, 0, 42)
	ct := fe.EncryptLine(plain, iv)
	if ct != plain {
		t.Fatal("fast encryption is not the identity")
	}
	if got := fe.DecryptLine(ct, iv); got != plain {
		t.Fatal("fast decrypt(encrypt(p)) != p")
	}
	var dst [BlockSize]byte
	fe.EncryptLineTo(&dst, &plain, iv)
	if dst != plain {
		t.Fatal("EncryptLineTo is not the identity")
	}
	fe.DecryptLineTo(&dst, &ct, iv)
	if dst != plain {
		t.Fatal("DecryptLineTo is not the identity")
	}
	if (fe.GeneratePad(iv) != Pad{}) {
		t.Fatal("fast pad is not zero (identity XOR)")
	}
}

// TestFastEngineMACConsistency: fast MACs must verify on the benign
// path — the value computed at write time equals the value recomputed at
// read time from the same (addr, counter) — while still varying across
// addresses and counters so table mix-ups surface as panics in tests.
func TestFastEngineMACConsistency(t *testing.T) {
	fe := NewFastEngine()
	var ct, other [BlockSize]byte
	other[0] = 1
	m1 := fe.LineMAC(&ct, 0x1000, 7)
	if m2 := fe.LineMAC(&other, 0x1000, 7); m2 != m1 {
		t.Fatal("fast LineMAC depends on ciphertext bytes; it must be latency-only")
	}
	if m3 := fe.LineMAC(&ct, 0x1040, 7); m3 == m1 {
		t.Fatal("fast LineMAC ignores the address")
	}
	if m4 := fe.LineMAC(&ct, 0x1000, 8); m4 == m1 {
		t.Fatal("fast LineMAC ignores the counter")
	}
	payload := make([]byte, 64)
	n1 := fe.NodeMAC(payload, 3)
	if n2 := fe.NodeMAC(payload, 4); n2 == n1 {
		t.Fatal("fast NodeMAC ignores the position")
	}
	if n3 := fe.NodeMAC(payload, 3); n3 != n1 {
		t.Fatal("fast NodeMAC is not deterministic")
	}
}

// TestFastEngineECCConsistency: the fast Osiris check must be a pure
// deterministic function of the plaintext (so write-time and read-time
// values agree) and actually sensitive to it (so the Osiris probe's
// first-match semantics still terminate at the right counter).
func TestFastEngineECCConsistency(t *testing.T) {
	fe := NewFastEngine()
	var plain [BlockSize]byte
	for i := range plain {
		plain[i] = byte(i)
	}
	e1 := fe.LineECC(&plain)
	if e2 := fe.LineECC(&plain); e2 != e1 {
		t.Fatal("fast LineECC is not deterministic")
	}
	plain[5] ^= 0x80
	if e3 := fe.LineECC(&plain); e3 == e1 {
		t.Fatal("fast LineECC ignores the plaintext")
	}
}

// TestFastEngineAllocFree pins the whole latency-only surface at zero
// allocations per op: fast mode exists to delete host-side cost, so a
// heap escape in any of its methods would be a silent regression of the
// very thing it optimizes (and of the PR 5 invariant the functional
// engine already holds).
func TestFastEngineAllocFree(t *testing.T) {
	fe := NewFastEngine()
	var line, out [BlockSize]byte
	var pad Pad
	payload := make([]byte, 64)
	iv := MakeIV(1, 0, 9)
	sink := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		fe.GeneratePadInto(&pad, iv)
		fe.EncryptLineTo(&out, &line, iv)
		fe.DecryptLineTo(&line, &out, iv)
		m := fe.LineMAC(&out, 0x1000, 9)
		n := fe.NodeMAC(payload, 3)
		sink += uint64(m[0]) + uint64(n[0]) + uint64(fe.LineECC(&line))
	})
	if allocs != 0 {
		t.Fatalf("fast provider allocates %.1f objects per op, want 0", allocs)
	}
	_ = sink
}

// TestDispatchAllocFree pins the devirtualizing wrapper itself: routing
// through crypt.Dispatch must not reintroduce the interface-call escapes
// it exists to avoid, for either engine.
func TestDispatchAllocFree(t *testing.T) {
	var aes, mac [16]byte
	copy(aes[:], "dispatch-aes-k16")
	copy(mac[:], "dispatch-mac-k16")
	for _, tc := range []struct {
		name string
		d    Dispatch
	}{
		{"functional", AsDispatch(NewEngine(aes, mac))},
		{"fast", AsDispatch(NewFastEngine())},
		{"counting", AsDispatch(&Counting{Provider: NewEngine(aes, mac)})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			var line, out [BlockSize]byte
			payload := make([]byte, 64)
			iv := MakeIV(2, 64, 1)
			sink := uint64(0)
			allocs := testing.AllocsPerRun(200, func() {
				d.EncryptLineTo(&out, &line, iv)
				d.DecryptLineTo(&line, &out, iv)
				m := d.LineMAC(&out, 0x40, 1)
				n := d.NodeMAC(payload, 2)
				sink += uint64(m[0]) + uint64(n[0]) + uint64(d.LineECC(&line))
			})
			if allocs != 0 {
				t.Fatalf("Dispatch(%s) allocates %.1f objects per op, want 0", tc.name, allocs)
			}
			_ = sink
		})
	}
}

// A Counting provider computes the wrapped engine's values and counts
// each hash and each pad once, whether called directly or through a
// Dispatch.
func TestCountingCountsHashes(t *testing.T) {
	var aes, mac [16]byte
	copy(aes[:], "counting-aes-k16")
	copy(mac[:], "counting-mac-k16")
	e := NewEngine(aes, mac)
	c := &Counting{Provider: e}
	d := AsDispatch(c)
	var line [BlockSize]byte
	line[3] = 7
	payload := []byte("node payload")
	if c.LineMAC(&line, 0x40, 2) != e.LineMAC(&line, 0x40, 2) || d.LineMAC(&line, 0x40, 2) != e.LineMAC(&line, 0x40, 2) {
		t.Fatal("LineMAC differs from the wrapped engine's")
	}
	if c.NodeMAC(payload, 5) != e.NodeMAC(payload, 5) || d.NodeMAC(payload, 5) != e.NodeMAC(payload, 5) {
		t.Fatal("NodeMAC differs from the wrapped engine's")
	}
	if c.LineECC(&line) != e.LineECC(&line) || d.LineECC(&line) != e.LineECC(&line) {
		t.Fatal("LineECC differs from the wrapped engine's")
	}
	iv := MakeIV(1, 2, 3)
	want := e.EncryptLine(line, iv)
	var pad, padD Pad
	c.GeneratePadInto(&pad, iv)
	d.GeneratePadInto(&padD, iv)
	if c.GeneratePad(iv) != e.GeneratePad(iv) || d.GeneratePad(iv) != e.GeneratePad(iv) || pad != e.GeneratePad(iv) || padD != pad {
		t.Fatal("a pad differs from the wrapped engine's")
	}
	if c.EncryptLine(line, iv) != want || d.EncryptLine(line, iv) != want ||
		c.DecryptLine(want, iv) != line || d.DecryptLine(want, iv) != line {
		t.Fatal("EncryptLine or DecryptLine differs from the wrapped engine's")
	}
	var ct, ctD, back [BlockSize]byte
	c.EncryptLineTo(&ct, &line, iv)
	d.EncryptLineTo(&ctD, &line, iv)
	c.DecryptLineTo(&back, &ct, iv)
	d.DecryptLineTo(&back, &ctD, iv)
	if ct != want || ctD != want || back != line {
		t.Fatal("EncryptLineTo or DecryptLineTo differs from the wrapped engine's")
	}
	if c.LineMACs != 2 || c.NodeMACs != 2 || c.ECCs != 2 || c.Pads != 12 {
		t.Fatalf("counted %d line MACs, %d node MACs, %d ECCs, %d pads; want 2, 2, 2 and 12",
			c.LineMACs, c.NodeMACs, c.ECCs, c.Pads)
	}
	if !d.Functional() || AsDispatch(&Counting{Provider: NewFastEngine()}).Functional() {
		t.Fatal("Counting does not report its engine's Functional")
	}
}
