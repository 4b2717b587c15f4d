package misu

import "testing"

func TestMultiEpochCounterUniqueness(t *testing.T) {
	// Across many drain/recover epochs, the counter assigned to a given
	// slot must never repeat — the property that makes pad reuse
	// invisible off-chip.
	u, _ := newUnit(PartialWPQ, 4)
	seen := map[uint64]bool{}
	for epoch := 0; epoch < 10; epoch++ {
		slot := u.Protect(0x1000, lineRef(byte(epoch)))
		ctr := u.Queue().Entry(slot).Counter
		if seen[ctr] {
			t.Fatalf("counter %d reused in epoch %d", ctr, epoch)
		}
		seen[ctr] = true
		u.Drain()
		if _, err := u.Recover(); err != nil {
			t.Fatalf("epoch %d recovery: %v", epoch, err)
		}
	}
	if u.CounterRegister() != 40 {
		t.Fatalf("register = %d after 10 epochs of size 4", u.CounterRegister())
	}
}

func TestDrainWithFetchedEntries(t *testing.T) {
	// An entry the Ma-SU has fetched but not cleared is still live: it
	// must be drained and recovered (the paper's double-write case).
	u, _ := newUnit(PartialWPQ, 8)
	s := u.Protect(0x1000, lineRef(1))
	u.Queue().MarkFetched(s)
	u.Drain()
	rec, err := u.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 1 || rec[0].Addr != 0x1000 || rec[0].Plain != line(1) {
		t.Fatalf("fetched-but-uncleared entry not recovered: %+v", rec)
	}
}

func TestPostDeferredAcrossCoalesce(t *testing.T) {
	u, _ := newUnit(PostWPQ, 8)
	s1 := u.Protect(0x1000, lineRef(1))
	u.CompleteDeferredMAC(s1)
	// Coalesce into the same entry; the new data needs a fresh deferred
	// MAC and blocks further accepts until completed.
	s2 := u.Protect(0x1000, lineRef(2))
	if s2 != s1 {
		t.Fatalf("coalesce used new slot %d", s2)
	}
	if !u.DeferredPending() {
		t.Fatal("coalesced Post write has no deferred MAC")
	}
	u.CompleteDeferredMAC(s2)
	u.Drain()
	rec, err := u.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 1 || rec[0].Plain != line(2) {
		t.Fatal("coalesced Post entry recovered stale data")
	}
}

func TestRecoverIsFreshEpoch(t *testing.T) {
	u, _ := newUnit(FullWPQ, 8)
	u.Protect(0x1000, lineRef(1))
	u.Drain()
	if _, err := u.Recover(); err != nil {
		t.Fatal(err)
	}
	// New epoch: queue empty, tree re-initialized, drain+recover of the
	// empty state must verify cleanly.
	if u.Queue().Live() != 0 {
		t.Fatal("queue not empty after recovery")
	}
	u.Drain()
	rec, err := u.Recover()
	if err != nil || len(rec) != 0 {
		t.Fatalf("fresh-epoch empty recovery: %v %v", rec, err)
	}
}

func TestTamperedMACBlockDetected(t *testing.T) {
	u, dev := newUnit(PartialWPQ, 8)
	u.Protect(0x1000, lineRef(1))
	u.Drain()
	// Flip a bit inside the drained MAC block region.
	macBase := uint64(1<<20) + 8 + 8*72
	b := make([]byte, 1)
	dev.Read(macBase, b)
	b[0] ^= 1
	dev.Write(macBase, b)
	if _, err := u.Recover(); err == nil {
		t.Fatal("tampered MAC block accepted")
	}
}

func TestFullWPQRootBindsCounterRegister(t *testing.T) {
	// Two units with identical content but different counter registers
	// must have different roots: the register binds the drain epoch.
	u1, _ := newUnit(FullWPQ, 4)
	u2, _ := newUnit(FullWPQ, 4)
	u2.Drain()
	if _, err := u2.Recover(); err != nil { // advances u2's register
		t.Fatal(err)
	}
	u1.Protect(0x1000, lineRef(1))
	u2.Protect(0x1000, lineRef(1))
	if u1.rootRegister() == u2.rootRegister() {
		t.Fatal("roots equal across epochs: replaying an old drained image would verify")
	}
}

func TestStorageScalesWithEntries(t *testing.T) {
	small, _ := newUnit(PartialWPQ, 4)
	big, _ := newUnit(PartialWPQ, 32)
	if small.Storage().PadBytes >= big.Storage().PadBytes {
		t.Fatal("pad storage does not scale with entries")
	}
	if small.Storage().PersistentCounterBytes != big.Storage().PersistentCounterBytes {
		t.Fatal("persistent counter register should not scale")
	}
}

func TestDecryptSlotMatchesProtect(t *testing.T) {
	u, _ := newUnit(FullWPQ, 8)
	for i := byte(0); i < 8; i++ {
		slot := u.Protect(uint64(i+1)*64, lineRef(i))
		addr, plain := u.DecryptSlot(slot)
		if addr != uint64(i+1)*64 || plain != line(i) {
			t.Fatalf("slot %d decrypt mismatch", slot)
		}
	}
}
