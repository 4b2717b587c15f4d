package controller

import (
	"testing"

	"dolos/internal/masu"
)

// TestCoalesceIntoInFlightEntry is the regression test for the stale-
// replay bug: a write that coalesces into a WPQ entry the Ma-SU has
// already fetched must cause a re-fetch, so the final NVM state carries
// the newest value — at quiesce and across a crash.
func TestCoalesceIntoInFlightEntry(t *testing.T) {
	eng, c := newSystem(DolosPartial, masu.BMTEager)
	addr := uint64(0x1000)

	// First write; let the Ma-SU fetch it (drain delay 400 + pipeline).
	c.PersistWrite(addr, lineRef(1), nil)
	eng.RunUntil(700)
	slot, ok := c.mi.Queue().Lookup(addr)
	if !ok || !c.mi.Queue().Entry(slot).Fetched {
		t.Skip("entry not in-flight at this cycle; timing shifted")
	}

	// Second write to the same line while in flight: must coalesce and
	// reset the Fetched flag.
	c.PersistWrite(addr, lineRef(2), nil)
	eng.Run(0)

	got, _, err := c.MaSU().ReadLine(addr)
	if err != nil || got != line(2) {
		t.Fatalf("in-flight coalesce lost the newer value: got[0]=%x err=%v", got[0], err)
	}
	if c.MaSU().Writes() < 2 {
		t.Fatal("entry was not re-fetched after coalesce")
	}
}

// TestCoalesceInFlightCrash drains the WPQ with a re-coalesced entry
// still live and verifies the newest value survives recovery.
func TestCoalesceInFlightCrash(t *testing.T) {
	eng, c := newSystem(DolosPartial, masu.BMTEager)
	addr := uint64(0x2000)
	c.PersistWrite(addr, lineRef(1), nil)
	eng.RunUntil(700)
	accepted := false
	c.PersistWrite(addr, lineRef(2), func() { accepted = true })
	eng.RunUntil(1000)
	if !accepted {
		t.Skip("second write not accepted before crash point")
	}
	if _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(AnubisRecovery); err != nil {
		t.Fatalf("recover: %v", err)
	}
	got, _, err := c.MaSU().ReadLine(addr)
	if err != nil || got != line(2) {
		t.Fatalf("crash after in-flight coalesce lost newest value: err=%v", err)
	}
}

// TestOverflowedPageFullyVerifiable is the regression test for the
// page-overflow invariant: after a minor-counter overflow, every line of
// the page — including never-written ones — must verify.
func TestOverflowedPageFullyVerifiable(t *testing.T) {
	eng, c := newSystem(DolosPartial, masu.BMTEager)
	hot := uint64(0x3000)
	for i := 0; i < 130; i++ {
		c.PersistWrite(hot, lineRef(byte(i)), nil)
		eng.Run(0) // serialize so every write lands (no coalescing noise)
	}
	ma := c.MaSU()
	if ma.Counters().Counter(hot) < 128 {
		t.Skip("no overflow reached")
	}
	for a := uint64(0x3000) &^ 4095; a < (0x3000&^uint64(4095))+4096; a += 64 {
		if err := ma.CheckLine(a); err != nil {
			t.Fatalf("line %#x unverifiable after page overflow: %v", a, err)
		}
	}
}
