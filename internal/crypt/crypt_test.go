package crypt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testEngine() *Engine {
	var aesKey, macKey [16]byte
	copy(aesKey[:], "0123456789abcdef")
	copy(macKey[:], "fedcba9876543210")
	return NewEngine(aesKey, macKey)
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := testEngine()
	var plain [BlockSize]byte
	copy(plain[:], "the quick brown fox jumps over the lazy dog 0123456789abcdef")
	iv := MakeIV(42, 7, 1001)
	ct := e.EncryptLine(plain, iv)
	if ct == plain {
		t.Fatal("ciphertext equals plaintext")
	}
	back := e.DecryptLine(ct, iv)
	if back != plain {
		t.Fatal("round trip failed")
	}
}

func TestDecryptWrongCounterFails(t *testing.T) {
	e := testEngine()
	var plain [BlockSize]byte
	plain[0] = 0xAA
	ct := e.EncryptLine(plain, MakeIV(1, 0, 5))
	back := e.DecryptLine(ct, MakeIV(1, 0, 6))
	if back == plain {
		t.Fatal("decryption with wrong counter should not recover plaintext")
	}
}

func TestPadUniqueness(t *testing.T) {
	e := testEngine()
	seen := make(map[Pad]IV)
	for page := uint64(0); page < 8; page++ {
		for off := uint16(0); off < 8; off++ {
			for ctr := uint64(0); ctr < 8; ctr++ {
				iv := MakeIV(page, off, ctr)
				pad := e.GeneratePad(iv)
				if prev, dup := seen[pad]; dup {
					t.Fatalf("pad collision between %v and %v", prev, iv)
				}
				seen[pad] = iv
			}
		}
	}
}

func TestIVDistinctFields(t *testing.T) {
	// Different (page, offset, counter) triples must give different IVs.
	a := MakeIV(1, 2, 3)
	b := MakeIV(1, 3, 2)
	c := MakeIV(2, 1, 3)
	if a == b || a == c || b == c {
		t.Fatal("IVs for distinct coordinates collide")
	}
}

func TestXORInvolution(t *testing.T) {
	f := func(data [BlockSize]byte, padBytes [BlockSize]byte) bool {
		pad := Pad(padBytes)
		var once, twice [BlockSize]byte
		XOR(&once, &data, &pad)
		XOR(&twice, &once, &pad)
		return twice == data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXORAliasing(t *testing.T) {
	e := testEngine()
	pad := e.GeneratePad(MakeIV(9, 9, 9))
	var buf, want [BlockSize]byte
	buf[10] = 0x5A
	XOR(&want, &buf, &pad)
	XOR(&buf, &buf, &pad) // in place
	if buf != want {
		t.Fatal("in-place XOR differs from out-of-place")
	}
}

func TestLineMACBindsAllInputs(t *testing.T) {
	e := testEngine()
	var ct [BlockSize]byte
	ct[5] = 1
	base := e.LineMAC(&ct, 0x1000, 7)

	var ct2 [BlockSize]byte
	ct2[5] = 2
	if e.LineMAC(&ct2, 0x1000, 7) == base {
		t.Fatal("MAC ignores ciphertext")
	}
	if e.LineMAC(&ct, 0x2000, 7) == base {
		t.Fatal("MAC ignores address (relocation attack undetected)")
	}
	if e.LineMAC(&ct, 0x1000, 8) == base {
		t.Fatal("MAC ignores counter (replay attack undetected)")
	}
	if e.LineMAC(&ct, 0x1000, 7) != base {
		t.Fatal("MAC not deterministic")
	}
}

func TestNodeMACBindsPosition(t *testing.T) {
	e := testEngine()
	payload := bytes.Repeat([]byte{0xCD}, 64)
	if e.NodeMAC(payload, 1) == e.NodeMAC(payload, 2) {
		t.Fatal("node MAC ignores position")
	}
}

func TestMACKeyMatters(t *testing.T) {
	var aesKey, mk1, mk2 [16]byte
	mk2[0] = 1
	e1 := NewEngine(aesKey, mk1)
	e2 := NewEngine(aesKey, mk2)
	var ct [BlockSize]byte
	if e1.LineMAC(&ct, 1, 1) == e2.LineMAC(&ct, 1, 1) {
		t.Fatal("MAC independent of key")
	}
}

func TestECCDetectsChange(t *testing.T) {
	var a, b [BlockSize]byte
	b[63] = 1
	if ECC(&a) == ECC(&b) {
		t.Fatal("ECC collision on single-byte change")
	}
	if ECC(&a) != ECC(&a) {
		t.Fatal("ECC not deterministic")
	}
}

func TestEncryptionKeyMatters(t *testing.T) {
	var k1, k2, mk [16]byte
	k2[15] = 0xFF
	e1 := NewEngine(k1, mk)
	e2 := NewEngine(k2, mk)
	var plain [BlockSize]byte
	plain[0] = 0x42
	iv := MakeIV(3, 3, 3)
	if e1.EncryptLine(plain, iv) == e2.EncryptLine(plain, iv) {
		t.Fatal("ciphertext independent of AES key")
	}
}

func TestCTRPropertyRoundTrip(t *testing.T) {
	e := testEngine()
	f := func(plain [BlockSize]byte, page uint32, off uint16, ctr uint64) bool {
		iv := MakeIV(uint64(page), off, ctr)
		return e.DecryptLine(e.EncryptLine(plain, iv), iv) == plain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
