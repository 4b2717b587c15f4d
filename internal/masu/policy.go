package masu

import "dolos/internal/crypt"

// Policy tunes the Ma-SU's metadata-persistence behavior to model the
// related-work schemes. The zero value is the repo's original behavior
// (write-back metadata caches, full Anubis shadow tracking, the tree
// kind's fixed serialized-MAC count) — every legacy scheme runs with it
// and stays bit-identical to the seed.
type Policy struct {
	// CounterWriteThrough persists the counter block to NVM on every
	// write (SuperMem's write-through counter cache, Triad-NVM's
	// persistent counters). Counter lines never sit dirty in the cache
	// and need no shadow-region entry: the NVM copy is always current.
	CounterWriteThrough bool
	// CoalesceCounterWrites merges consecutive write-through persists of
	// the same counter block into one NVM write (SuperMem's cross-bank
	// counter-write coalescing). Only meaningful with
	// CounterWriteThrough.
	CoalesceCounterWrites bool
	// PartialTreePersistence persists only the first TreePersistLevels
	// BMT levels (write-through, like the counters); higher levels stay
	// volatile and are reconstructed at recovery (Triad-NVM's N knob;
	// SuperMem is the N = 0 point).
	PartialTreePersistence bool
	// TreePersistLevels is N: how many BMT levels (from the leaves up)
	// are persisted on every write. Clamped to the tree height.
	TreePersistLevels int
	// StreamlinedTreeUpdates coalesces BMT ancestor updates shared with
	// the immediately preceding write's path into the in-flight update
	// instead of serializing them again (STUM). Timing-only: the
	// functional update path is unchanged.
	StreamlinedTreeUpdates bool
}

// Policy returns the metadata-persistence policy in effect.
func (u *Unit) Policy() Policy { return u.policy }

// persistLevels returns the effective Triad-NVM N, clamped to the
// tree height.
func (u *Unit) persistLevels() int {
	n := u.policy.TreePersistLevels
	if n < 0 {
		n = 0
	}
	if u.bmtTree != nil && n > u.bmtTree.Levels() {
		n = u.bmtTree.Levels()
	}
	return n
}

// serialMACsFor returns the critical-path MAC count charged for a write
// to leaf under the active policy. The default is the tree kind's fixed
// count (Table 1); partial tree persistence serializes only the data MAC
// plus the persisted levels; streamlined updates subtract the ancestors
// shared with the previous write's path.
func (u *Unit) serialMACsFor(leaf uint64) int {
	base := u.kind.SerialMACs()
	switch {
	case u.policy.PartialTreePersistence && u.kind == BMTEager:
		// Counter-atomicity: the write waits only for the data MAC and
		// the persisted tree levels; volatile levels update off the
		// critical path.
		return 1 + u.persistLevels()
	case u.policy.StreamlinedTreeUpdates && u.kind == BMTEager:
		if !u.havePrev {
			return base
		}
		shared := 0
		a, b := leaf, u.prevLeaf
		for l := 1; l <= u.bmtTree.Levels(); l++ {
			a, b = a/arity, b/arity
			if a == b {
				shared++
			}
		}
		if m := base - shared; m > 1 {
			return m
		}
		return 1 // the data MAC always serializes
	}
	return base
}

// recoveryReadCycles is the modeled NVM metadata-read latency used by
// the boot-time recovery estimates (the same 600-cycle charge the write
// path uses for a metadata-cache miss).
const recoveryReadCycles = 600

// ancestorCounts returns, for each BMT level 0..Levels, how many
// distinct ancestors the written leaves have (level 0 = distinct written
// leaves). Host-side bookkeeping for the recovery-cost model; not part
// of the simulated hot path.
func (u *Unit) ancestorCounts() []int {
	levels := 0
	if u.bmtTree != nil {
		levels = u.bmtTree.Levels()
	}
	leaves := make(map[uint64]struct{})
	u.eachWritten(func(addr uint64) bool {
		leaves[u.lay.LeafIndex(addr)] = struct{}{}
		return true
	})
	counts := make([]int, levels+1)
	counts[0] = len(leaves)
	span := uint64(1) // leaves under one level-l ancestor
	for l := 1; l <= levels; l++ {
		span *= arity
		anc := make(map[uint64]struct{})
		for leaf := range leaves {
			anc[leaf/span] = struct{}{}
		}
		counts[l] = len(anc)
	}
	return counts
}

// ReconstructEstimate models the boot-time cost of reconstruction
// recovery under partial tree persistence: read the persisted frontier
// (the level-N nodes, or the counter blocks themselves when N = 0),
// recompute every volatile ancestor MAC above it, and compare with the
// root register. A fully persistent tree (N >= height) recovers in O(1):
// one root-register read and one check, independent of footprint — the
// Triad-NVM runtime/recovery tradeoff's other end. The estimate derives
// only from the written-address set, so it is identical in fast and
// functional mode.
func (u *Unit) ReconstructEstimate() uint64 {
	if u.bmtTree == nil {
		return 0
	}
	levels := u.bmtTree.Levels()
	n := u.persistLevels()
	mac := uint64(crypt.MACLatency)
	if n >= levels {
		return recoveryReadCycles + mac
	}
	counts := u.ancestorCounts()
	cycles := uint64(counts[n]) * (recoveryReadCycles + mac)
	for l := n + 1; l <= levels; l++ {
		cycles += uint64(counts[l]) * mac
	}
	return cycles + mac // final root compare
}

// AnubisEstimate models shadow-replay recovery: one NVM read plus one
// MAC verify per live shadow entry, and the redo-register check.
func (u *Unit) AnubisEstimate() uint64 {
	return uint64(u.shadowCount)*(recoveryReadCycles+uint64(crypt.MACLatency)) + recoveryReadCycles
}

// CoalescedCounterWrites returns how many write-through counter persists
// were merged with an in-flight write to the same block.
func (u *Unit) CoalescedCounterWrites() uint64 { return u.coalescedCtr }
