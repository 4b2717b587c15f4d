package misu

import (
	"testing"
	"testing/quick"

	"dolos/internal/crypt"
	"dolos/internal/nvm"
)

func newUnit(d Design, entries int) (*Unit, *nvm.Device) {
	eng := crypt.NewEngine(testAESKey, testMACKey)
	dev := nvm.NewDevice(nil, 1<<26, 0)
	return New(d, eng, dev, 1<<20, entries), dev
}

func line(seed byte) [64]byte {
	var l [64]byte
	for i := range l {
		l[i] = seed + byte(i*7)
	}
	return l
}

// lineRef returns line(seed) by reference, as Protect takes it.
func lineRef(seed byte) *[64]byte {
	l := line(seed)
	return &l
}

func TestDesignEntries(t *testing.T) {
	if FullWPQ.Entries(16) != 16 || PartialWPQ.Entries(16) != 14 || PostWPQ.Entries(16) != 11 {
		t.Fatalf("entries: %d/%d/%d", FullWPQ.Entries(16), PartialWPQ.Entries(16), PostWPQ.Entries(16))
	}
	// The paper's quoted sizes (16/13/10) come from its own rounding; we
	// must stay within one entry of them.
	for _, tc := range []struct {
		d    Design
		want int
	}{{FullWPQ, 16}, {PartialWPQ, 13}, {PostWPQ, 10}} {
		got := tc.d.Entries(16)
		if got < tc.want-1 || got > tc.want+1 {
			t.Fatalf("%v: entries(16) = %d, paper says %d", tc.d, got, tc.want)
		}
	}
}

func TestInsertLatencies(t *testing.T) {
	if FullWPQ.InsertLatency() != 321 || PartialWPQ.InsertLatency() != 161 || PostWPQ.InsertLatency() != 1 {
		t.Fatalf("latencies: %d/%d/%d",
			FullWPQ.InsertLatency(), PartialWPQ.InsertLatency(), PostWPQ.InsertLatency())
	}
}

func TestDesignString(t *testing.T) {
	if FullWPQ.String() != "Full-WPQ-MiSU" || Design(9).String() == "" {
		t.Fatal("bad design names")
	}
}

func TestProtectEncrypts(t *testing.T) {
	u, _ := newUnit(PartialWPQ, 8)
	plain := line(1)
	slot := u.Protect(0x1000, &plain)
	e := u.Queue().Entry(slot)
	if e.Cipher == plain {
		t.Fatal("WPQ entry stored in plaintext")
	}
	addr, back := u.DecryptSlot(slot)
	if addr != 0x1000 || back != plain {
		t.Fatal("DecryptSlot did not recover the write")
	}
}

func TestDrainRecoverRoundTrip(t *testing.T) {
	for _, d := range []Design{FullWPQ, PartialWPQ, PostWPQ} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			u, _ := newUnit(d, 8)
			writes := map[uint64][64]byte{
				0x1000: line(1), 0x2040: line(2), 0x3080: line(3),
			}
			for a, p := range writes {
				if !u.CanAccept(a) {
					// Post-WPQ: complete the deferred MAC first.
					for i := 0; i < u.Queue().Size(); i++ {
						if u.Queue().Entry(i).MACPending {
							u.CompleteDeferredMAC(i)
						}
					}
				}
				u.Protect(a, &p)
			}
			st := u.Drain()
			if st.EntriesWritten != 8 {
				t.Fatalf("drained %d slot records", st.EntriesWritten)
			}
			rec, err := u.Recover()
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if len(rec) != len(writes) {
				t.Fatalf("recovered %d writes, want %d", len(rec), len(writes))
			}
			for _, r := range rec {
				if want, ok := writes[r.Addr]; !ok || r.Plain != want {
					t.Fatalf("recovered wrong data at %#x", r.Addr)
				}
			}
		})
	}
}

func TestADRBudgetCompliance(t *testing.T) {
	// Full-WPQ drains no MAC blocks and computes no MACs on ADR power;
	// Partial drains MAC blocks but computes none; Post computes at most
	// one.
	uf, _ := newUnit(FullWPQ, 8)
	uf.Protect(0x40, lineRef(1))
	before := uf.MACOps()
	st := uf.Drain()
	if st.MACBlocksWritten != 0 || st.DeferredMACs != 0 || uf.MACOps() != before {
		t.Fatalf("Full-WPQ drain did security work: %+v", st)
	}

	up, _ := newUnit(PartialWPQ, 8)
	up.Protect(0x40, lineRef(1))
	before = up.MACOps()
	st = up.Drain()
	if st.MACBlocksWritten != 1 || st.DeferredMACs != 0 || up.MACOps() != before {
		t.Fatalf("Partial-WPQ drain: %+v", st)
	}

	uo, _ := newUnit(PostWPQ, 8)
	uo.Protect(0x40, lineRef(1)) // deferred MAC left pending
	st = uo.Drain()
	if st.DeferredMACs != 1 {
		t.Fatalf("Post-WPQ drain deferred MACs = %d, want 1", st.DeferredMACs)
	}
}

func TestPostWPQBusyUntilDeferredDone(t *testing.T) {
	u, _ := newUnit(PostWPQ, 8)
	u.Protect(0x40, lineRef(1))
	if u.CanAccept(0x80) {
		t.Fatal("Post-WPQ accepted a write with a deferred MAC pending")
	}
	for i := 0; i < u.Queue().Size(); i++ {
		if u.Queue().Entry(i).MACPending {
			u.CompleteDeferredMAC(i)
		}
	}
	if !u.CanAccept(0x80) {
		t.Fatal("Post-WPQ still busy after deferred MAC completed")
	}
}

func TestTamperedDrainDetected(t *testing.T) {
	for _, d := range []Design{FullWPQ, PartialWPQ} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			u, dev := newUnit(d, 8)
			u.Protect(0x1000, lineRef(1))
			u.Drain()
			// Spoof: flip a byte in the drained slot-0 ciphertext.
			addr := uint64(1<<20) + drainHeaderBytes(8) + 8
			b := make([]byte, 1)
			dev.Read(addr, b)
			b[0] ^= 0xFF
			dev.Write(addr, b)
			if _, err := u.Recover(); err == nil {
				t.Fatal("tampered WPQ image accepted")
			}
		})
	}
}

func TestRelocatedDrainEntryDetected(t *testing.T) {
	u, dev := newUnit(PartialWPQ, 8)
	u.Protect(0x1000, lineRef(1))
	u.Protect(0x2000, lineRef(2))
	u.Drain()
	// Swap the two slot records (relocation attack).
	base := uint64(1 << 20)
	r0 := make([]byte, 72)
	r1 := make([]byte, 72)
	dev.Read(base+drainHeaderBytes(8), r0)
	dev.Read(base+drainHeaderBytes(8)+72, r1)
	dev.Write(base+drainHeaderBytes(8), r1)
	dev.Write(base+drainHeaderBytes(8)+72, r0)
	if _, err := u.Recover(); err == nil {
		t.Fatal("relocated WPQ entries accepted")
	}
}

func TestCounterRegisterAdvances(t *testing.T) {
	u, _ := newUnit(PartialWPQ, 8)
	u.Protect(0x1000, lineRef(1))
	u.Drain()
	if _, err := u.Recover(); err != nil {
		t.Fatal(err)
	}
	if u.CounterRegister() != 8 {
		t.Fatalf("counter register = %d, want 8 (advanced by WPQ size)", u.CounterRegister())
	}
	// The same slot now encrypts with a different pad.
	slot := u.Protect(0x1000, lineRef(1))
	e2 := u.Queue().Entry(slot)
	if e2.Counter != 8+uint64(slot) {
		t.Fatalf("new epoch counter = %d", e2.Counter)
	}
}

func TestPadUniquenessAcrossEpochs(t *testing.T) {
	u, _ := newUnit(PartialWPQ, 4)
	plain := line(9)
	slot := u.Protect(0x1000, &plain)
	c1 := u.Queue().Entry(slot).Cipher
	u.Drain()
	if _, err := u.Recover(); err != nil {
		t.Fatal(err)
	}
	slot2 := u.Protect(0x1000, &plain)
	c2 := u.Queue().Entry(slot2).Cipher
	if slot == slot2 && c1 == c2 {
		t.Fatal("same plaintext in same slot produced same ciphertext across drains")
	}
}

func TestClearedEntrySkippedAtRecovery(t *testing.T) {
	u, _ := newUnit(PartialWPQ, 8)
	s := u.Protect(0x1000, lineRef(1))
	u.Protect(0x2000, lineRef(2))
	u.Queue().Clear(s) // Ma-SU finished this one
	u.Drain()
	rec, err := u.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 1 || rec[0].Addr != 0x2000 {
		t.Fatalf("recovered %v, want only 0x2000", rec)
	}
}

func TestEmptyRecover(t *testing.T) {
	for _, d := range []Design{FullWPQ, PartialWPQ, PostWPQ} {
		u, _ := newUnit(d, 8)
		u.Drain()
		rec, err := u.Recover()
		if err != nil || len(rec) != 0 {
			t.Fatalf("%v: empty recover -> %v, %v", d, rec, err)
		}
	}
}

func TestCoalescingReusesSlot(t *testing.T) {
	u, _ := newUnit(PartialWPQ, 4)
	s1 := u.Protect(0x1000, lineRef(1))
	s2 := u.Protect(0x1000, lineRef(2))
	if s1 != s2 {
		t.Fatalf("coalescing used new slot %d != %d", s2, s1)
	}
	_, plain := u.DecryptSlot(s2)
	if plain != line(2) {
		t.Fatal("coalesced entry holds stale data")
	}
	if u.Queue().Live() != 1 {
		t.Fatalf("live = %d", u.Queue().Live())
	}
}

func TestStorageOverheadTable3(t *testing.T) {
	for _, tc := range []struct {
		d       Design
		entries int
	}{{FullWPQ, 16}, {PartialWPQ, 13}, {PostWPQ, 10}} {
		u, _ := newUnit(tc.d, tc.entries)
		st := u.Storage()
		if st.PersistentCounterBytes != 8 {
			t.Fatalf("%v: counter bytes %d", tc.d, st.PersistentCounterBytes)
		}
		if st.PadBytes != tc.entries*64 {
			t.Fatalf("%v: pad bytes %d", tc.d, st.PadBytes)
		}
		if st.TagArrayBytes != tc.entries*8 {
			t.Fatalf("%v: tag bytes %d", tc.d, st.TagArrayBytes)
		}
		if st.MACRegisterBytes == 0 {
			t.Fatalf("%v: zero MAC storage", tc.d)
		}
	}
}

func TestDrainRegionBytes(t *testing.T) {
	// 8-byte bitmap header + slot records + MAC blocks.
	if DrainRegionBytes(16) != 8+16*72+2*64 {
		t.Fatalf("DrainRegionBytes(16) = %d", DrainRegionBytes(16))
	}
	// One 8-byte bitmap word per 64 slots.
	if DrainRegionBytes(100) != 16+100*72+13*64 {
		t.Fatalf("DrainRegionBytes(100) = %d", DrainRegionBytes(100))
	}
}

func TestRecoveryRoundTripProperty(t *testing.T) {
	// Property: any set of distinct-address writes survives drain+recover
	// bit-exactly under every design.
	f := func(seeds []byte) bool {
		for _, d := range []Design{FullWPQ, PartialWPQ, PostWPQ} {
			u, _ := newUnit(d, 8)
			want := map[uint64][64]byte{}
			for i, s := range seeds {
				if i >= 6 {
					break
				}
				addr := uint64(i+1) * 64
				p := line(s)
				if d == PostWPQ && u.DeferredPending() {
					for j := 0; j < u.Queue().Size(); j++ {
						if u.Queue().Entry(j).MACPending {
							u.CompleteDeferredMAC(j)
						}
					}
				}
				u.Protect(addr, &p)
				want[addr] = p
			}
			u.Drain()
			rec, err := u.Recover()
			if err != nil || len(rec) != len(want) {
				return false
			}
			for _, r := range rec {
				if want[r.Addr] != r.Plain {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
