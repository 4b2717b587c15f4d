package masu

import (
	"fmt"
)

// IntegrityError reports a read-path integrity violation (spoofing,
// relocation or replay detected).
type IntegrityError struct {
	Addr   uint64
	Reason string
}

// Error implements the error interface.
func (e *IntegrityError) Error() string {
	return fmt.Sprintf("masu: integrity violation at %#x: %s", e.Addr, e.Reason)
}

// ReadLine fetches, verifies and decrypts the line at addr. A line whose
// counter is zero has never been written under this tree (counters are
// integrity-protected, so an adversary cannot fake this state) and reads
// as zeroes without verification. A line whose data is pending under
// its counter is read as its owner (ownLine): its slot holds the
// plaintext, so the host neither fills it nor decrypts, and its MAC
// holds by construction; the cost charges the MAC and the pad as for
// any line.
func (u *Unit) ReadLine(addr uint64) ([64]byte, Cost, error) {
	var cost Cost
	addr &^= uint64(63)
	if !u.lay.ValidData(addr) {
		panic(fmt.Sprintf("masu: read outside data region: %#x", addr))
	}
	u.reads++

	u.touchCounter(addr, false, &cost)
	counter := u.counters.Counter(addr)
	if counter == 0 {
		var zero [64]byte
		return zero, cost, nil
	}

	line, pending := u.ownLine(addr, counter)

	// Verify the data MAC over (ciphertext, address, counter).
	cost.TotalMACs++
	cost.SerialMACs++
	if !pending && !u.macHolds(addr, counter, &line) {
		return [64]byte{}, cost, &IntegrityError{Addr: addr, Reason: "data MAC mismatch"}
	}

	// Verify the counter's integrity through the tree.
	leaf := u.lay.LeafIndex(addr)
	switch u.kind {
	case BMTEager:
		macs, err := u.bmtTree.VerifyLeaf(leaf)
		cost.TotalMACs += macs
		u.chargeTreePath(leaf, &cost)
		if err != nil {
			return [64]byte{}, cost, &IntegrityError{Addr: addr, Reason: err.Error()}
		}
	case ToCLazy:
		u.chargeTreePath(leaf, &cost)
		if err := u.tocTree.VerifyLeaf(leaf); err != nil {
			return [64]byte{}, cost, &IntegrityError{Addr: addr, Reason: err.Error()}
		}
	}

	if !pending {
		u.eng.DecryptLineTo(&line, &line, lineIV(addr, counter))
	}
	cost.AESOps++
	return line, cost, nil
}

// CheckLine verifies addr's stored MAC against its ciphertext and
// current counter without touching the metadata caches — a pure audit
// probe (scrubbing, debugging, post-recovery sweeps).
func (u *Unit) CheckLine(addr uint64) error {
	if !u.eng.Functional() {
		return ErrFastMode
	}
	addr &^= 63
	counter := u.counters.Counter(addr)
	if counter == 0 {
		return nil
	}
	if !u.lineHolds(addr, counter) {
		return &IntegrityError{Addr: addr, Reason: "audit MAC mismatch"}
	}
	return nil
}

// chargeTreePath charges MT-cache accesses for the leaf's path. In
// hardware verification stops at the first cached node; the cache model
// reproduces that by hitting on the hot upper levels.
func (u *Unit) chargeTreePath(leaf uint64, cost *Cost) {
	idx := leaf
	levels := 0
	if u.bmtTree != nil {
		levels = u.bmtTree.Levels()
	} else {
		levels = u.tocTree.Levels()
	}
	for level := 1; level <= levels; level++ {
		idx /= 8
		var nodeAddr uint64
		if u.bmtTree != nil {
			nodeAddr = u.bmtTree.NodeNVMAddr(level, idx)
		} else {
			nodeAddr = u.tocTree.NodeNVMAddr(level, idx)
		}
		hit, victim, evicted := u.mtCache.Access(nodeAddr, false)
		if evicted && victim.Dirty {
			u.persistMetaVictim(victim.Addr, cost)
		}
		if hit {
			// Verified-cached node: the walk stops here in hardware.
			return
		}
		cost.TreeMisses++
	}
}
