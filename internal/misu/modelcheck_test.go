package misu

// Model check for the Mi-SU: random protect / Ma-SU-style clear / drain /
// recover sequences across all three designs, with an oracle of the
// writes that must be recoverable at any instant — those still live in
// the WPQ plus those already handed to the Ma-SU.

import (
	"math/rand"
	"testing"
)

func TestModelCheckMiSU(t *testing.T) {
	for _, d := range []Design{FullWPQ, PartialWPQ, PostWPQ} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(d) + 7))
			u, _ := newUnit(d, d.Entries(16))
			// drained[addr] = last value the Ma-SU consumed (cleared);
			// liveOracle[addr] = value still owed by the WPQ.
			liveOracle := map[uint64][64]byte{}
			addrs := make([]uint64, 12)
			for i := range addrs {
				addrs[i] = uint64(i+1) * 64
			}
			randLine := func() [64]byte {
				var l [64]byte
				rng.Read(l[:])
				return l
			}
			completePending := func() {
				for i := 0; i < u.Queue().Size(); i++ {
					if u.Queue().Entry(i).MACPending {
						u.CompleteDeferredMAC(i)
					}
				}
			}

			for step := 0; step < 2500; step++ {
				switch op := rng.Intn(100); {
				case op < 50: // protect a write
					addr := addrs[rng.Intn(len(addrs))]
					if !u.CanAccept(addr) {
						if u.DeferredPending() {
							completePending()
						}
						if !u.CanAccept(addr) {
							continue
						}
					}
					val := randLine()
					slot := u.Protect(addr, &val)
					liveOracle[addr] = val
					// Decrypt-verify immediately: the slot must hold it.
					if a, p := u.DecryptSlot(slot); a != addr || (!u.Queue().Entry(slot).MACPending && p != val) {
						t.Fatalf("step %d: slot round-trip failed", step)
					}
				case op < 75: // Ma-SU consumes the oldest entry
					completePending()
					slot, ok := u.Queue().FetchOldest()
					if !ok {
						continue
					}
					u.Queue().MarkFetched(slot)
					addr, plain := u.DecryptSlot(slot)
					if want, ok := liveOracle[addr]; ok && plain != want {
						t.Fatalf("step %d: Ma-SU fetched stale data for %#x", step, addr)
					}
					u.Queue().Clear(slot)
					delete(liveOracle, addr)
				default: // power failure: drain + recover
					completePending()
					st := u.Drain()
					if st.DeferredMACs > 1 {
						t.Fatalf("step %d: %d deferred MACs on ADR power", step, st.DeferredMACs)
					}
					rec, err := u.Recover()
					if err != nil {
						t.Fatalf("step %d: recovery: %v", step, err)
					}
					got := map[uint64][64]byte{}
					for _, w := range rec {
						got[w.Addr] = w.Plain
					}
					for addr, want := range liveOracle {
						g, ok := got[addr]
						if !ok {
							t.Fatalf("step %d: live write %#x not recovered", step, addr)
						}
						if g != want {
							t.Fatalf("step %d: recovered stale data for %#x", step, addr)
						}
					}
					// Everything recovered is handed to the Ma-SU.
					liveOracle = map[uint64][64]byte{}
				}
			}
		})
	}
}
