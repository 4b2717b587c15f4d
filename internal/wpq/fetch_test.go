package wpq

import (
	"fmt"
	"math/rand"
	"testing"
)

// scanFetchable is the reference FetchOldest: a scan of the entries
// themselves, not of fetchKey, for the fetchable entry (valid,
// un-cleared, MAC complete, not in flight) with the smallest Seq.
func scanFetchable(q *Queue) (slot int, ok bool) {
	best := -1
	for i := range q.slots {
		e := &q.slots[i]
		if !e.Valid || e.Cleared || e.MACPending || e.Fetched {
			continue
		}
		if best < 0 || e.Seq < q.slots[best].Seq {
			best = i
		}
	}
	return max(best, 0), best >= 0
}

// checkTags reports how the tag array disagrees with the entries, or
// "": a line's tag is in at most one slot, and that slot holds a live
// entry for the line.
func checkTags(q *Queue) string {
	for i, a := range q.tagOf {
		if a == noTag {
			continue
		}
		if e := &q.slots[i]; !e.Valid || e.Cleared || e.Addr != a {
			return fmt.Sprintf("slot %d holds line %#x's tag and entry %+v", i, a, *e)
		}
		for j := i + 1; j < len(q.tagOf); j++ {
			if q.tagOf[j] == a {
				return fmt.Sprintf("line %#x tagged in slots %d and %d", a, i, j)
			}
		}
	}
	return ""
}

// TestFetchOldestMatchesScan pins the remembered oldest fetchable slot to
// a scan of the entries. Random programs allocate and commit new lines,
// coalesce into live ones, commit Post-WPQ style entries with their MAC
// pending and later complete them (a recommit, as the Mi-SU does), flip
// the pending flag in place, fetch the oldest, clear fetched and
// unfetched entries, and reset the queue, on queues with and without
// coalescing. After every step FetchOldest must agree with the scan; a
// step skips the check now and then, so the queue is also driven while
// it remembers nothing. The tag array is checked against the entries
// after every step too.
func TestFetchOldestMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := New(1 + rng.Intn(9))
		q.SetCoalescing(seed%4 != 0)
		// live returns a random valid, un-cleared slot whose flags
		// satisfy want, or -1.
		live := func(want func(e *Entry) bool) int {
			var cands []int
			for i := range q.slots {
				if e := &q.slots[i]; e.Valid && !e.Cleared && want(e) {
					cands = append(cands, i)
				}
			}
			if len(cands) == 0 {
				return -1
			}
			return cands[rng.Intn(len(cands))]
		}
		anyEntry := func(*Entry) bool { return true }
		for step := 0; step < 300; step++ {
			var what string
			switch op := rng.Intn(100); {
			case op < 35:
				what = "allocate+commit"
				addr := uint64(rng.Intn(12)) * 64
				// The controller waits while MustWait holds; half the
				// time the test does not, which leaves two live entries
				// for one line.
				if q.MustWait(addr) && rng.Intn(2) == 0 {
					break
				}
				if s, _, ok := q.Allocate(addr); ok {
					q.Commit(s, Entry{Addr: addr, Valid: true, MACPending: rng.Intn(4) == 0})
				}
			case op < 45:
				what = "coalesce"
				if s := live(anyEntry); s >= 0 && q.CanCoalesce(q.slots[s].Addr) {
					addr := q.slots[s].Addr
					if got, coalesced, ok := q.Allocate(addr); !ok || !coalesced || got != s {
						t.Fatalf("seed %d step %d: coalescing %#x gave slot %d (%v, %v), want %d", seed, step, addr, got, coalesced, ok, s)
					}
					q.Commit(s, Entry{Addr: addr, Valid: true})
				}
			case op < 55:
				what = "complete deferred MAC"
				if s := live(func(e *Entry) bool { return e.MACPending }); s >= 0 {
					e := *q.Entry(s)
					e.MACPending = false
					q.Commit(s, e)
				}
			case op < 60:
				what = "set MAC pending"
				if s := live(anyEntry); s >= 0 {
					q.SetMACPending(s, rng.Intn(2) == 0)
				}
			case op < 75:
				what = "fetch"
				if s, ok := q.FetchOldest(); ok {
					q.MarkFetched(s)
				}
			case op < 88:
				what = "clear fetched"
				if s := live(func(e *Entry) bool { return e.Fetched }); s >= 0 {
					q.Clear(s)
				}
			case op < 98:
				what = "clear"
				if s := live(anyEntry); s >= 0 {
					q.Clear(s)
				}
			default:
				what = "reset"
				q.Reset()
			}
			if rng.Intn(8) == 0 {
				continue
			}
			if err := checkTags(q); err != "" {
				t.Fatalf("seed %d step %d (after %s): %s", seed, step, what, err)
			}
			gotSlot, gotOK := q.FetchOldest()
			wantSlot, wantOK := scanFetchable(q)
			if gotSlot != wantSlot || gotOK != wantOK {
				t.Fatalf("seed %d step %d (after %s): FetchOldest = %d, %v; the entries' oldest fetchable is %d, %v",
					seed, step, what, gotSlot, gotOK, wantSlot, wantOK)
			}
		}
	}
}
