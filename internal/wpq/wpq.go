// Package wpq implements the Write Pending Queue: the small battery-backed
// (ADR) buffer inside the memory controller that forms the on-chip part of
// the persistence domain. Entries are stored encrypted by the Mi-SU; a
// parallel volatile tag array keeps plaintext addresses to support write
// coalescing and read hits (Section 4.5 of the paper).
package wpq

import (
	"fmt"

	"dolos/internal/crypt"
)

// EntryDataSize is the payload of one WPQ entry: a 64-byte line plus its
// 8-byte address — the 72-byte entries the paper assumes.
const EntryDataSize = 72

// Entry is one WPQ slot.
type Entry struct {
	// Addr is the line address (also kept in the volatile tag array;
	// its presence here models the encrypted address field).
	Addr uint64
	// Cipher is the Mi-SU-encrypted line.
	Cipher [64]byte
	// MAC is the per-entry MAC (Partial- and Post-WPQ designs; unused
	// by Full-WPQ, which maintains a two-level tree instead). The Mi-SU
	// fills it when the MAC is observed — at a drain — so between an
	// insert and the next drain it may still be zero.
	MAC crypt.MAC
	// Counter is the Mi-SU encryption counter this entry's pad derives
	// from (persistent counter register + slot number).
	Counter uint64
	// Valid marks an allocated slot.
	Valid bool
	// Cleared marks an entry fully processed by the Ma-SU; it may be
	// reused and need not be re-protected if drained (Section 4.3).
	Cleared bool
	// MACPending marks a committed Post-WPQ entry whose deferred MAC
	// computation has not finished yet.
	MACPending bool
	// Fetched marks an entry the Ma-SU has started processing; it can
	// no longer be coalesced into (the in-flight pipeline holds a copy)
	// but still occupies its slot until cleared.
	Fetched bool
	// Seq is the entry's age stamp, assigned at commit. Crash-drain
	// replay follows Seq order so that two live entries for the same
	// line (old one fetched, new one not) restore newest-last.
	Seq uint64
}

// ObsEvent enumerates the queue-state transitions reported to an
// Observer. The observer receives the post-event live count, so
// occupancy can be sampled exactly at its change points.
type ObsEvent uint8

const (
	// EvInsert is a new slot claimed for a write.
	EvInsert ObsEvent = iota
	// EvCoalesce is a write merged into a live entry.
	EvCoalesce
	// EvFetch is the Ma-SU starting to process a slot.
	EvFetch
	// EvClear is a slot retired after its drain completed.
	EvClear
)

// String returns the event mnemonic.
func (e ObsEvent) String() string {
	switch e {
	case EvInsert:
		return "insert"
	case EvCoalesce:
		return "coalesce"
	case EvFetch:
		return "fetch"
	case EvClear:
		return "clear"
	}
	return fmt.Sprintf("ObsEvent(%d)", uint8(e))
}

// Observer receives queue events (telemetry). The queue has no clock;
// the observer's owner stamps time. Must be purely observational.
type Observer func(ev ObsEvent, addr uint64, live int)

// noTag marks a slot holding no volatile tag. Line addresses are
// device offsets well below 2^64, so the all-ones value is free.
const noTag = ^uint64(0)

// Queue is a circular WPQ with a volatile tag array.
type Queue struct {
	slots     []Entry
	nextAlloc int // next slot to try for insertion (paper's Next_time)
	live      int // valid && !cleared

	// fetchKey[i] is slots[i].Seq when the slot is fetchable (valid,
	// un-cleared, MAC complete, not in flight) and MaxUint64 otherwise.
	// FetchOldest runs several times per drained entry, and scanning a
	// dense word per slot beats touching every ~100-byte Entry; the key
	// is refreshed by the few mutators that change a fetchability bit,
	// each through setKey.
	fetchKey []uint64
	// oldest is the slot FetchOldest last found (-1: none fetchable)
	// and oldestKey its key, valid while oldestOK. setKey keeps the pair
	// right when a key falls below oldestKey, and clears oldestOK when
	// the remembered slot's own key changes; Reset clears it too. Most
	// FetchOldest calls then return without a scan.
	oldest    int
	oldestKey uint64
	oldestOK  bool

	// tagOf is the volatile tag array, indexed by slot: the line address
	// whose tag the slot holds, or noTag. An address appears in at most
	// one slot (inserting clears any stale holder), so a lookup is a
	// linear scan — the queue has at most a few dozen slots, and
	// scanning a dense word per slot is faster than the map hashing
	// this replaced (three lookups per write on the hot path).
	tagOf      []uint64
	noCoalesce bool
	seq        uint64

	inserts   uint64
	coalesces uint64
	readHits  uint64

	obs Observer
}

// New creates a WPQ with the given number of entries.
func New(entries int) *Queue {
	if entries <= 0 {
		panic("wpq: non-positive size")
	}
	q := &Queue{
		slots:    make([]Entry, entries),
		fetchKey: make([]uint64, entries),
		tagOf:    make([]uint64, entries),
	}
	for i := range q.fetchKey {
		q.fetchKey[i] = ^uint64(0)
		q.tagOf[i] = noTag
	}
	return q
}

// Size returns the number of slots.
func (q *Queue) Size() int { return len(q.slots) }

// Live returns the number of valid, un-cleared entries.
func (q *Queue) Live() int { return q.live }

// Full reports whether no slot can accept a new entry.
func (q *Queue) Full() bool { return q.live == len(q.slots) }

// Inserts returns the number of successful allocations (including
// coalesced updates).
func (q *Queue) Inserts() uint64 { return q.inserts }

// Coalesces returns how many inserts hit an existing entry.
func (q *Queue) Coalesces() uint64 { return q.coalesces }

// ReadHits returns how many reads were served from the WPQ.
func (q *Queue) ReadHits() uint64 { return q.readHits }

// SetObserver installs (or with nil removes) the queue-event observer
// and returns the one it replaces, so an observer layered over another
// can call through to it and later put it back.
func (q *Queue) SetObserver(obs Observer) Observer {
	prev := q.obs
	q.obs = obs
	return prev
}

// CanCoalesce reports whether a write to addr would coalesce into an
// existing live entry rather than needing a free slot. Coalescing into a
// Fetched (Ma-SU in-flight) entry is allowed: committing new content
// resets the Fetched flag, so the pipeline's completion leaves the entry
// live and it is re-fetched with the new data (the Seq stamp tells the
// completion its snapshot is stale).
func (q *Queue) CanCoalesce(addr uint64) bool {
	if q.noCoalesce {
		return false
	}
	s, ok := q.Lookup(addr)
	return ok && q.slots[s].Valid && !q.slots[s].Cleared
}

// setTag points addr's tag at slot, clearing any stale holder so the
// at-most-one-slot-per-address invariant survives re-allocation.
func (q *Queue) setTag(addr uint64, slot int) {
	for i := range q.tagOf {
		if q.tagOf[i] == addr {
			q.tagOf[i] = noTag
		}
	}
	q.tagOf[slot] = addr
}

// MustWait reports whether a write to addr must stall to preserve
// same-line write ordering: only when coalescing is disabled and the
// line already occupies a live entry (two live entries for one line
// would make crash-replay order ambiguous).
func (q *Queue) MustWait(addr uint64) bool {
	if !q.noCoalesce {
		return false
	}
	s, ok := q.Lookup(addr)
	if !ok {
		return false
	}
	e := &q.slots[s]
	return e.Valid && !e.Cleared
}

// Lookup consults the volatile tag array for a live entry holding addr.
func (q *Queue) Lookup(addr uint64) (slot int, ok bool) {
	for i, a := range q.tagOf {
		if a == addr {
			return i, true
		}
	}
	return 0, false
}

// ReadHit records a read served from the WPQ (after the caller decrypts
// the entry with one XOR).
func (q *Queue) ReadHit() { q.readHits++ }

// Entry returns slot i in place. The entry is the queue's own: read
// it, never write through it (Commit, MarkFetched and Clear keep the
// fetch order and the tag array in step with it), and read it before
// the next call that changes the slot.
func (q *Queue) Entry(i int) *Entry { return &q.slots[i] }

// SetCoalescing enables or disables write coalescing through the tag
// array (enabled by default; the ablation experiments turn it off).
func (q *Queue) SetCoalescing(enabled bool) { q.noCoalesce = !enabled }

// Allocate finds the slot for a new write to addr. If a live entry for
// addr exists it is returned with coalesced == true; otherwise a free
// slot is claimed. ok is false when the queue is full (the caller counts
// a retry event and re-attempts later).
func (q *Queue) Allocate(addr uint64) (slot int, coalesced, ok bool) {
	// One tag lookup serves both the coalescing check and the tag move
	// below: an address's tag is in at most one slot.
	held, tagged := q.Lookup(addr)
	if tagged && !q.noCoalesce && q.slots[held].Valid && !q.slots[held].Cleared {
		q.coalesces++
		q.inserts++
		if q.obs != nil {
			q.obs(EvCoalesce, addr, q.live)
		}
		return held, true, true
	}
	if q.Full() {
		return 0, false, false
	}
	n := len(q.slots)
	for s, i := q.nextAlloc, 0; i < n; i++ {
		if e := &q.slots[s]; !e.Valid || e.Cleared {
			q.nextAlloc = s + 1
			if q.nextAlloc == n {
				q.nextAlloc = 0
			}
			q.live++
			q.inserts++
			// A free or cleared slot's key is already MaxUint64.
			*e = Entry{} // caller fills via Commit
			if tagged {
				q.tagOf[held] = noTag
			}
			q.tagOf[s] = addr
			if q.obs != nil {
				q.obs(EvInsert, addr, q.live)
			}
			return s, false, true
		}
		if s++; s == n {
			s = 0
		}
	}
	panic("wpq: full check and scan disagree")
}

// Commit stores the protected entry into a slot claimed by Allocate.
func (q *Queue) Commit(slot int, e Entry) {
	if !e.Valid {
		panic("wpq: committing invalid entry")
	}
	prev := &q.slots[slot]
	if prev.Valid && !prev.Cleared && prev.Addr != e.Addr {
		panic(fmt.Sprintf("wpq: slot %d overwrite of live entry %#x with %#x", slot, prev.Addr, e.Addr))
	}
	q.seq++
	e.Seq = q.seq
	*prev = e
	q.refreshKey(slot)
	// An address holds at most one tag, so a slot that already holds
	// this one leaves nothing to clear elsewhere.
	if q.tagOf[slot] != e.Addr {
		q.setTag(e.Addr, slot)
	}
}

// refreshKey recomputes fetchKey[slot] from the slot's flags. Every
// mutation of a fetchability-relevant field routes through here.
func (q *Queue) refreshKey(slot int) {
	e := &q.slots[slot]
	if e.Valid && !e.Cleared && !e.MACPending && !e.Fetched {
		q.setKey(slot, e.Seq)
	} else {
		q.setKey(slot, ^uint64(0))
	}
}

// setKey sets fetchKey[slot] to k and keeps the remembered oldest slot
// right: a key below the remembered one makes slot the oldest, and a
// change to the remembered slot's own key forgets it. Every write of
// fetchKey outside Reset goes through here.
func (q *Queue) setKey(slot int, k uint64) {
	q.fetchKey[slot] = k
	if !q.oldestOK {
		return
	}
	if k < q.oldestKey {
		q.oldest, q.oldestKey = slot, k
	} else if slot == q.oldest && k != q.oldestKey {
		q.oldestOK = false
	}
}

// FetchOldest returns the slot index of the oldest (smallest Seq) live
// entry that is not awaiting a deferred MAC, for the Ma-SU to process.
// ok is false when no entry is eligible. Age order matters when the same
// line occupies two entries (coalescing disabled): the newer value must
// reach NVM last.
func (q *Queue) FetchOldest() (slot int, ok bool) {
	if !q.oldestOK {
		q.oldest, q.oldestKey = q.scanOldest()
		q.oldestOK = true
	}
	if q.oldest < 0 {
		return 0, false
	}
	return q.oldest, true
}

// scanOldest returns the slot with the smallest fetch key and that key,
// or -1 and MaxUint64 when no slot is fetchable. Seq stamps start at 1
// and are unique, so MaxUint64 doubles as the "not fetchable" sentinel
// and the scan is a plain min over one dense word per slot. Ties are
// impossible; the strict < keeps the original first-smallest-Seq choice.
func (q *Queue) scanOldest() (slot int, key uint64) {
	best, bestKey := -1, ^uint64(0)
	for i, k := range q.fetchKey {
		if k < bestKey {
			best, bestKey = i, k
		}
	}
	return best, bestKey
}

// MarkFetched flags slot as in-flight in the Ma-SU pipeline.
func (q *Queue) MarkFetched(slot int) {
	q.slots[slot].Fetched = true
	q.setKey(slot, ^uint64(0))
	if q.obs != nil {
		q.obs(EvFetch, q.slots[slot].Addr, q.live)
	}
}

// Clear marks slot processed by the Ma-SU (step 4 of Figure 11). The slot
// becomes reusable; the tag stays until reuse so reads can still hit the
// WPQ copy harmlessly.
func (q *Queue) Clear(slot int) {
	e := &q.slots[slot]
	if !e.Valid || e.Cleared {
		panic(fmt.Sprintf("wpq: clearing slot %d in state %+v", slot, *e))
	}
	e.Cleared = true
	q.setKey(slot, ^uint64(0))
	q.live--
	if q.tagOf[slot] == e.Addr {
		q.tagOf[slot] = noTag
	}
	if q.obs != nil {
		q.obs(EvClear, e.Addr, q.live)
	}
}

// SetMAC stores slot's entry MAC. Unlike Commit it leaves the entry's
// Seq and flags alone: the Mi-SU fills a MAC when it is observed, which
// is not a new write.
func (q *Queue) SetMAC(slot int, m crypt.MAC) { q.slots[slot].MAC = m }

// Reset empties the queue (after a drain + recovery cycle).
func (q *Queue) Reset() {
	for i := range q.slots {
		q.slots[i] = Entry{}
		q.fetchKey[i] = ^uint64(0)
		q.tagOf[i] = noTag
	}
	q.nextAlloc, q.live = 0, 0
	q.oldestOK = false
}
