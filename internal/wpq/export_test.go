package wpq

import "sort"

// SetMACPending marks/unmarks a slot's deferred-MAC state (Post-WPQ).
func (q *Queue) SetMACPending(slot int, pending bool) {
	q.slots[slot].MACPending = pending
	q.refreshKey(slot)
}

// LiveEntries returns copies of all valid, un-cleared entries in age
// (Seq) order — the set that must reach NVM on a power failure, oldest
// first so replay restores the newest value of any repeated line last.
func (q *Queue) LiveEntries() []Entry {
	out := make([]Entry, 0, q.live)
	for i := range q.slots {
		if q.slots[i].Valid && !q.slots[i].Cleared {
			out = append(out, q.slots[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// LiveSlotsBySeq returns the slot indices of all live entries in age
// order (oldest first) — the crash-drain replay order.
func (q *Queue) LiveSlotsBySeq() []int {
	out := make([]int, 0, q.live)
	for i := range q.slots {
		if q.slots[i].Valid && !q.slots[i].Cleared {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return q.slots[out[a]].Seq < q.slots[out[b]].Seq })
	return out
}
