package masu

import (
	"dolos/internal/ctr"
	"dolos/internal/toc"
	"dolos/internal/trace"
)

// LoadImage installs a checkpoint image functionally, in order, leaving
// exactly the state one ProcessWrite per line leaves (DESIGN.md §19). It
// works a page run at a time. A run is a maximal sequence of consecutive
// lines on one counter block's page with no address repeated and no
// minor counter at its maximum. Its first line goes through ProcessWrite,
// which takes every metadata-cache miss, victim and shadow entry the run
// incurs; each further line only hits what the first brought in, so the
// counter-cache hits, the counter-block updates, the tree update and the
// MT-cache walk of all of them are applied once for the rest of the run.
// Each line's plaintext is staged under its own counter, and its
// ciphertext, MAC and ECC turn pending: the load computes no AES pad and
// no hash. The write hook observes the lines that go through
// ProcessWrite; the others re-encrypt nothing.
func (u *Unit) LoadImage(img []trace.InitLine) {
	for i := 0; i < len(img); {
		first := img[i].Addr &^ 63
		u.ProcessWrite(first, img[i].Data, -1)
		i++
		if n := u.runLength(first, img[i:]); n > 0 && u.loadRun(first, img[i:i+n]) {
			i += n
		}
	}
}

// runLength returns how many lines at the head of rest extend the run
// that first (just written) opened: lines on first's page, each to a line
// the run has not written yet, whose minor counter is short of overflow.
func (u *Unit) runLength(first uint64, rest []trace.InitLine) int {
	leaf := u.lay.LeafIndex(first)
	blk := u.memo[0].block // first's live block: the write just loaded it
	seen := uint64(1) << (first / 64 % ctr.LinesPerBlock)
	for n, il := range rest {
		a := il.Addr &^ 63
		li := a / 64 % ctr.LinesPerBlock
		if !u.lay.ValidData(a) || u.lay.LeafIndex(a) != leaf || seen&(1<<li) != 0 || blk.Minors[li] == ctr.MinorMax {
			return n
		}
		seen |= 1 << li
	}
	return len(rest)
}

// loadRun installs lines, the rest of the run whose first line, first,
// was just written, and reports whether it could: it cannot, and changes
// nothing, when the first line's walk evicted one of its own path nodes
// from the MT cache, since then the lines would not all hit. Otherwise
// every line hits the counter block and every path node, evicts nothing
// and leaves the shadow entries the first line made live and pending, so
// only its staged plaintext and its counter are its own. The first
// line's write left its counter block and path in the walk memo.
func (u *Unit) loadRun(first uint64, lines []trace.InitLine) bool {
	leaf := u.lay.LeafIndex(first)
	n := uint64(len(lines))
	var pathBuf [toc.MaxLevels]uint64
	path := pathBuf[:0]
	for _, s := range u.memo[1:] {
		path = append(path, s.addr)
	}
	if !u.mtCache.RepeatHits(path, !u.policy.PartialTreePersistence, n) {
		return false
	}
	u.counterCache.RepeatHits([]uint64{u.memo[0].addr}, !u.policy.CounterWriteThrough, n)

	blk := u.memo[0].block
	var slots [ctr.LinesPerBlock]uint8
	for j := range lines {
		a := lines[j].Addr &^ 63
		li := a / 64 % ctr.LinesPerBlock
		slots[j] = uint8(li)
		counter := blk.Major<<ctr.MinorBits | uint64(blk.Minors[li]) + 1
		u.stageLine(a, &lines[j].Data, counter, linePending)
	}
	u.counters.ApplyRun(leaf, slots[:n], u.policy.CounterWriteThrough)
	if u.policy.CounterWriteThrough && u.policy.CoalesceCounterWrites {
		u.coalescedCtr += n // each merges with the previous write to the block
	}

	switch u.kind {
	case BMTEager:
		through := 0
		if u.policy.PartialTreePersistence {
			through = u.persistLevels()
		}
		u.bmtTree.UpdateLeafRun(leaf, through, n)
	case ToCLazy:
		var up toc.Update
		u.tocTree.StageRun(&up, leaf, n)
		u.tocTree.Apply(&up)
	}
	u.writes += n
	return true
}
