package masu

import (
	"encoding/binary"
	"fmt"

	"dolos/internal/crypt"
)

// CrashVolatile models power failure inside the Ma-SU: metadata caches
// and the live (cached) counter/tree state vanish. The redo-log
// registers, the root register, the shadow region and all NVM contents
// survive. The crash observes the tree and the counter blocks: every
// pending data line is filled (its ciphertext, MAC and ECC word
// written), pending shadow images are filled from the live blocks and
// the live tree, with a BMT a staged op's temp root is computed from
// its block, and the trees fill their stale leaves (the BMT root
// register, the ToC leaf-MAC region) from the live counter blocks
// before those are dropped. What survives is byte for byte what eager
// encryption and hashing wrote.
func (u *Unit) CrashVolatile() {
	u.fillLines(0, u.written.Len())
	u.shadow.Range(func(i uint64, e *shadowEntry) bool {
		if e.pending {
			u.fillShadow(i, e)
		}
		return true
	})
	if u.bmtTree != nil && u.redo.ready {
		img := u.redo.op.LeafBlock.Encode()
		u.redo.tempRoot = u.bmtTree.RootAfter(u.redo.op.LeafIndex, &img)
		u.redo.haveTempRoot = true
	}
	u.counterCache.InvalidateAll()
	u.mtCache.InvalidateAll()
	if u.bmtTree != nil {
		u.bmtTree.DropVolatile()
	}
	if u.tocTree != nil {
		u.tocTree.DropVolatile()
	}
	u.counters.DropVolatile()
}

// fillShadow copies a pending entry's image from its live block into
// the image table: the counter block, or the tree node with its pending
// MACs computed.
func (u *Unit) fillShadow(i uint64, e *shadowEntry) {
	nvmAddr := u.lay.CounterBase + i*64
	img := u.shadowImg.Ptr(i)
	if pi, ok := u.counters.PageIndexOfNVMAddr(nvmAddr); ok {
		*img = u.counters.ImageByIndex(pi)
	} else if level, index, ok := u.nodeRefAt(nvmAddr); ok {
		if u.bmtTree != nil {
			*img = u.bmtTree.NodeImage(level, index)
		} else {
			*img = u.tocTree.NodeImage(level, index)
		}
	}
	e.pending = false
}

// replayRedo resumes from step 3 if the crash hit between Prepare and
// Apply (ready bit set). Step 4 (WPQ clear) is skipped — the controller
// treats the entry as already evicted. A BMT root register takes the
// temp root the crash captured from the staged record.
func (u *Unit) replayRedo(rep *RecoveryReport) {
	if !u.redo.ready {
		return
	}
	u.ApplyWrite(&u.redo.op)
	if u.redo.haveTempRoot {
		u.bmtTree.SetRoot(u.redo.tempRoot)
		u.redo.haveTempRoot = false
	}
	rep.RedoReplayed = true
}

// RecoveryReport summarizes a recovery pass.
type RecoveryReport struct {
	// RedoReplayed is true when a staged op was re-applied (the ready
	// bit was set at the crash).
	RedoReplayed bool
	// ShadowRestored counts metadata blocks restored from the shadow
	// region.
	ShadowRestored int
	// LinesVerified counts data lines whose full path re-verified.
	LinesVerified int
	// OsirisProbes counts counter candidates tried (Osiris path only).
	OsirisProbes int
}

// RecoverAnubis performs the fast (Anubis) recovery: replay the redo log
// if it was ready, restore every shadow-tracked metadata block, then
// verify each written line's counter path against the persistent root
// register and its data MAC. Any tampering of NVM, shadow or drained
// state surfaces as an error here.
func (u *Unit) RecoverAnubis() (RecoveryReport, error) {
	var rep RecoveryReport
	if !u.eng.Functional() {
		return rep, ErrFastMode
	}

	// Restore the metadata caches from the shadow region first, so the
	// counter/tree state is consistent with the root register...
	u.shadow.Range(func(i uint64, e *shadowEntry) bool {
		if !e.live {
			return true
		}
		if e.pending {
			u.fillShadow(i, e)
		}
		nvmAddr := u.lay.CounterBase + i*64
		img := u.shadowImg.Get(i)
		if pi, ok := u.counters.PageIndexOfNVMAddr(nvmAddr); ok {
			u.counters.RestoreByIndex(pi, img)
			rep.ShadowRestored++
			return true
		}
		if level, index, ok := u.nodeRefAt(nvmAddr); ok {
			if u.bmtTree != nil {
				u.bmtTree.RestoreNode(level, index, img)
			} else {
				u.tocTree.RestoreNode(level, index, img)
			}
			rep.ShadowRestored++
		}
		return true
	})

	// ...then replay a staged op.
	u.replayRedo(&rep)

	if err := u.auditWrittenLines(&rep); err != nil {
		return rep, err
	}
	// Re-persist the recovered counter state: the Osiris invariant
	// (live - stored <= period) must hold from a fresh base, or repeated
	// crash/recovery cycles would let the gap grow beyond the probe
	// window.
	u.counters.PersistAll()
	u.rebuildLineCounters()
	return rep, nil
}

// RecoverOsiris performs the slow recovery path: discard all volatile
// counter state, re-identify each written line's counter by probing
// candidates against the stored ECC, rebuild the integrity tree from the
// recovered counter blocks, and compare with the root register. Only
// meaningful for the BMT backend (as in the Osiris/Triad-NVM lineage).
func (u *Unit) RecoverOsiris() (RecoveryReport, error) {
	var rep RecoveryReport
	if !u.eng.Functional() {
		return rep, ErrFastMode
	}
	if u.kind != BMTEager {
		return rep, fmt.Errorf("%w (Osiris recovery)", ErrNeedsBMT)
	}
	u.replayRedo(&rep)

	var probeErr error
	u.eachWritten(func(addr uint64) bool {
		ct := u.dev.ReadLine(addr)
		var eccBytes [eccSize]byte
		u.dev.Read(u.lay.ECCAddr(addr), eccBytes[:])
		wantECC := binary.LittleEndian.Uint32(eccBytes[:])
		a := addr
		_, tried, ok := u.counters.RecoverLine(a, func(cand uint64) bool {
			plain := u.eng.DecryptLine(ct, lineIV(a, cand))
			return u.eng.LineECC(&plain) == wantECC
		})
		rep.OsirisProbes += tried
		if !ok {
			probeErr = &IntegrityError{Addr: addr, Reason: "Osiris probe found no counter matching ECC"}
			return false
		}
		return true
	})
	if probeErr != nil {
		return rep, probeErr
	}

	// Rebuild the tree over recovered counter blocks and check the root.
	leafImages := make(map[uint64][64]byte)
	u.eachWritten(func(addr uint64) bool {
		leaf := u.lay.LeafIndex(addr)
		leafImages[leaf] = u.counters.ImageByIndex(leaf)
		return true
	})
	if got := u.bmtTree.RebuildFromLeaves(leafImages); !u.rebuiltRootHolds(got) {
		return rep, &IntegrityError{Addr: 0, Reason: "rebuilt tree root mismatch"}
	}
	// Install the rebuilt leaves as the live state.
	for leaf := range leafImages {
		u.bmtTree.UpdateLeaf(leaf, 0) // root unchanged by identical content
	}

	if err := u.auditWrittenLines(&rep); err != nil {
		return rep, err
	}
	// Fresh Osiris base for the probed counters (see RecoverAnubis).
	u.counters.PersistAll()
	u.rebuildLineCounters()
	return rep, nil
}

// RecoverReconstruct performs the Triad-NVM/SuperMem boot path: the
// counters are write-through (their NVM copies are current by
// construction) and only the first N tree levels were persisted, so
// recovery replays the redo registers, rebuilds the volatile tree levels
// bottom-up from the persisted counter blocks, and compares the
// reconstructed root against the persistent root register before
// serving. Tampering with counters, data, or MACs between crash and
// boot surfaces as a root mismatch or an audit failure.
func (u *Unit) RecoverReconstruct() (RecoveryReport, error) {
	var rep RecoveryReport
	if !u.eng.Functional() {
		return rep, ErrFastMode
	}
	if u.kind != BMTEager {
		return rep, fmt.Errorf("%w (reconstruction recovery)", ErrNeedsBMT)
	}
	u.replayRedo(&rep)

	leafImages := make(map[uint64][64]byte)
	u.eachWritten(func(addr uint64) bool {
		leaf := u.lay.LeafIndex(addr)
		leafImages[leaf] = u.counters.ImageByIndex(leaf)
		return true
	})
	if got := u.bmtTree.RebuildFromLeaves(leafImages); !u.rebuiltRootHolds(got) {
		return rep, &IntegrityError{Addr: 0, Reason: "reconstructed tree root mismatch"}
	}
	// Install the rebuilt leaves as the live state.
	for leaf := range leafImages {
		u.bmtTree.UpdateLeaf(leaf, 0) // root unchanged by identical content
	}

	if err := u.auditWrittenLines(&rep); err != nil {
		return rep, err
	}
	// Fresh Osiris base for the counters (see RecoverAnubis).
	u.counters.PersistAll()
	u.rebuildLineCounters()
	return rep, nil
}

// rebuiltRootHolds reports whether a root rebuilt from the written
// lines' counter blocks matches the root register. A unit that no write
// has reached rebuilds from no leaf and has never set its register, so
// there is nothing to compare.
func (u *Unit) rebuiltRootHolds(got crypt.MAC) bool {
	return u.writtenCount == 0 || got == u.bmtTree.Root()
}

// auditWrittenLines re-verifies every written line post-recovery: data
// MAC against the recovered counter (a data-pending line holds by
// construction, see ownLine), and the counter block against the root
// register (full path, no trusted-cache shortcut for the BMT).
func (u *Unit) auditWrittenLines(rep *RecoveryReport) error {
	verifiedLeaves := make(map[uint64]bool)
	var auditErr error
	u.eachWritten(func(addr uint64) bool {
		if !u.lineHolds(addr, u.counters.Counter(addr)) {
			auditErr = &IntegrityError{Addr: addr, Reason: "post-recovery data MAC mismatch"}
			return false
		}
		leaf := u.lay.LeafIndex(addr)
		if !verifiedLeaves[leaf] {
			var err error
			switch u.kind {
			case BMTEager:
				_, err = u.bmtTree.VerifyLeafFull(leaf)
			case ToCLazy:
				err = u.tocTree.VerifyLeafFull(leaf)
			}
			if err != nil {
				auditErr = &IntegrityError{Addr: addr, Reason: err.Error()}
				return false
			}
			verifiedLeaves[leaf] = true
		}
		rep.LinesVerified++
		return true
	})
	return auditErr
}

// eachWritten calls f with the address of every line ever written, in
// ascending address order, until f returns false.
func (u *Unit) eachWritten(f func(addr uint64) bool) {
	u.written.Range(func(i uint64, s *uint8) bool {
		if *s&lineWritten == 0 {
			return true
		}
		return f(u.lay.DataBase + i*64)
	})
}

// rebuildLineCounters re-derives the per-line ciphertext counters from
// the recovered counter store. A pending line whose counter changes is
// filled first: what it owes is owed under the old one.
func (u *Unit) rebuildLineCounters() {
	u.written.Range(func(i uint64, s *uint8) bool {
		if *s&lineWritten == 0 {
			return true
		}
		if c := u.counters.Counter(u.lay.DataBase + i*64); c != u.lineCounter.Get(i) {
			if *s&linePending != 0 {
				u.fillLine(i, s)
			}
			u.lineCounter.Set(i, c)
		}
		return true
	})
}

// Audit scrubs the protected memory: every written line's MAC is checked
// against its ciphertext and counter, and every touched counter block is
// verified through the integrity tree (full path, no trusted-cache
// shortcut). It returns the number of lines scrubbed, or the first
// integrity violation found. Suitable for periodic scrubbing and as the
// final step of a recovery.
func (u *Unit) Audit() (int, error) {
	var rep RecoveryReport
	if !u.eng.Functional() {
		return 0, ErrFastMode
	}
	if err := u.auditWrittenLines(&rep); err != nil {
		return rep.LinesVerified, err
	}
	return rep.LinesVerified, nil
}

// TamperShadow corrupts the first (lowest-address) live shadow-region
// entry (attack modeling).
func (u *Unit) TamperShadow() bool {
	tampered := false
	u.shadow.Range(func(i uint64, e *shadowEntry) bool {
		if !e.live {
			return true
		}
		if e.pending {
			u.fillShadow(i, e)
		}
		u.shadowImg.Ptr(i)[0] ^= 0xFF
		tampered = true
		return false
	})
	return tampered
}

// WipeShadow erases the whole shadow region (attack modeling: an
// adversary clears the Anubis tracker between crash and recovery).
func (u *Unit) WipeShadow() {
	u.shadow.Reset()
	u.shadowCount = 0
}

// ShadowEntries returns the number of live shadow-region entries.
func (u *Unit) ShadowEntries() int { return u.shadowCount }
