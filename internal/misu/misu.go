// Package misu implements the Minor Security Unit: the lightweight
// security engine that protects the contents of the ADR-backed WPQ so that
// on power failure the queue can be flushed to NVM as-is, within the
// standard ADR energy budget, while remaining confidential and
// integrity-verifiable (Section 4.3 of the paper).
//
// Three designs are provided:
//
//   - Full-WPQ: counter-mode encryption with per-slot pre-generated pads
//     plus a two-level Merkle tree over the whole WPQ (two MAC
//     computations per insert; the full queue is usable; only the WPQ
//     contents are drained on a crash).
//   - Partial-WPQ: a BMT-style per-entry MAC over (ciphertext, counter)
//     (one MAC per insert; MACs are drained alongside entries, so 8/9 of
//     the queue is usable).
//   - Post-WPQ: as Partial, but the MAC is computed after the write
//     commits; ADR reserves energy for at most one deferred MAC, further
//     shrinking the usable queue (near-zero insert latency).
//
// Addresses are kept in plaintext, per the paper's Section 4.5 option: an
// adversary observes addresses on the bus regardless, so encrypting them
// adds no security.
package misu

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dolos/internal/crypt"
	"dolos/internal/nvm"
	"dolos/internal/sim"
	"dolos/internal/wpq"
)

// Design selects the Mi-SU scheme.
type Design int

const (
	// FullWPQ is Design Option 1 (Figure 8).
	FullWPQ Design = iota
	// PartialWPQ is Design Option 2 (Figure 9).
	PartialWPQ
	// PostWPQ is Design Option 3 (Figure 10).
	PostWPQ
)

// String returns the paper's name for the design.
func (d Design) String() string {
	switch d {
	case FullWPQ:
		return "Full-WPQ-MiSU"
	case PartialWPQ:
		return "Partial-WPQ-MiSU"
	case PostWPQ:
		return "Post-WPQ-MiSU"
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// Entries returns the usable WPQ entry count for the design given the
// hardware queue size (Section 5.2.1: 16 / 13 / 10 for a 16-entry WPQ):
// Partial reserves 1/9 of the queue for drained MACs, Post additionally
// reserves ADR energy equivalent to one MAC computation over ~3 entries.
func (d Design) Entries(hardware int) int {
	switch d {
	case FullWPQ:
		return hardware
	case PartialWPQ:
		n := hardware * 8 / 9
		if n < 1 {
			n = 1
		}
		return n
	case PostWPQ:
		n := hardware*8/9 - 3
		if n < 1 {
			n = 1
		}
		return n
	}
	panic("misu: unknown design")
}

// InsertLatency is the critical-path latency added before a write is
// considered persisted: Full = XOR + 2 MACs, Partial = XOR + 1 MAC,
// Post = XOR only.
func (d Design) InsertLatency() sim.Cycle {
	switch d {
	case FullWPQ:
		return crypt.XORLatency + 2*crypt.MACLatency
	case PartialWPQ:
		return crypt.XORLatency + crypt.MACLatency
	case PostWPQ:
		return crypt.XORLatency
	}
	panic("misu: unknown design")
}

// groupSize is the Full-WPQ tree fan-in: 8 entries per L1 MAC.
const groupSize = 8

// wpqPageTag namespaces WPQ pad IVs away from memory-line IVs.
const wpqPageTag = uint64(1) << 44

// drainHeaderSize is the bookkeeping prefix of the drain region: the
// 8-byte live bitmap (the queue's valid bits, which a hardware ADR flush
// carries implicitly with the buffer). Same-line write ordering (see
// wpq.MustWait) guarantees at most one live entry per line, so replay
// order needs no further metadata.
const drainHeaderSize = 8

// RecoveredWrite is one write restored from a drained WPQ image.
type RecoveredWrite struct {
	Addr  uint64
	Plain [64]byte
}

// Unit is one Mi-SU instance bound to a WPQ.
type Unit struct {
	design Design
	eng    crypt.Dispatch
	queue  *wpq.Queue
	dev    *nvm.Device
	base   uint64 // NVM drain region

	// Persistent in-processor state (survives power failure).
	counterReg uint64
	root       crypt.MAC         // Full-WPQ tree root register
	l1         map[int]crypt.MAC // Full-WPQ L1 MAC registers (persistent)

	// Volatile state, regenerated at boot.
	pads []crypt.Pad

	deferredPending bool
	macOps          uint64
	drains          uint64

	// onProtect, when non-nil, observes each successful insertion
	// (telemetry). Purely observational.
	onProtect func(slot int, addr uint64)
}

// New creates a Mi-SU of the given design over a fresh WPQ with `entries`
// usable slots, draining to the NVM region at base. The region must hold
// DrainRegionBytes(entries).
func New(design Design, eng crypt.Provider, dev *nvm.Device, base uint64, entries int) *Unit {
	u := &Unit{
		design: design,
		eng:    crypt.AsDispatch(eng),
		queue:  wpq.New(entries),
		dev:    dev,
		base:   base,
		l1:     make(map[int]crypt.MAC),
	}
	u.regeneratePads()
	u.initFullTree()
	return u
}

// initFullTree establishes the Full-WPQ tree over the empty queue so that
// recovery's full rebuild matches the register state even when some
// groups were never written this epoch. Runs at boot alongside pad
// pre-generation, off any critical path.
func (u *Unit) initFullTree() {
	if u.design != FullWPQ {
		return
	}
	groups := (u.queue.Size() + groupSize - 1) / groupSize
	for g := 0; g < groups; g++ {
		u.l1[g] = u.groupMAC(g)
	}
	u.root = u.rootMAC()
}

// DrainRegionBytes returns the NVM bytes needed to drain a queue of the
// given size: header + per-slot 72-byte records + MAC blocks.
func DrainRegionBytes(entries int) uint64 {
	macBlocks := (entries + 7) / 8
	return drainHeaderSize + uint64(entries)*wpq.EntryDataSize + uint64(macBlocks)*64
}

// ErrFastMode reports a recovery attempted on a latency-only crypto
// provider: the drained image's MACs are fakes, so verifying them
// checks nothing.
var ErrFastMode = errors.New("misu: recovery requires the functional crypto provider (fast mode computes latency-only MACs)")

// Design returns the unit's design.
func (u *Unit) Design() Design { return u.design }

// Queue exposes the underlying WPQ (for the controller and statistics).
func (u *Unit) Queue() *wpq.Queue { return u.queue }

// CounterRegister returns the persistent counter register value.
func (u *Unit) CounterRegister() uint64 { return u.counterReg }

// MACOps returns the number of MAC computations performed by the Mi-SU.
func (u *Unit) MACOps() uint64 { return u.macOps }

// Drains returns the number of ADR drain events executed.
func (u *Unit) Drains() uint64 { return u.drains }

// DeferredPending reports whether a Post-WPQ deferred MAC is outstanding.
func (u *Unit) DeferredPending() bool { return u.deferredPending }

// SetProtectHook installs (or with nil removes) the insertion observer,
// invoked after each successful Protect with the slot and line address.
func (u *Unit) SetProtectHook(fn func(slot int, addr uint64)) { u.onProtect = fn }

// regeneratePads derives the per-slot pads from the persistent counter
// register. Slot pads are only exposed externally once (at a drain), after
// which the register advances, so pad reuse is never visible off-chip.
func (u *Unit) regeneratePads() {
	u.pads = make([]crypt.Pad, u.queue.Size())
	for i := range u.pads {
		iv := crypt.MakeIV(wpqPageTag, uint16(i), u.counterReg+uint64(i))
		u.pads[i] = u.eng.GeneratePad(iv)
	}
}

// slotCounter returns the encryption counter bound to slot i this epoch.
func (u *Unit) slotCounter(i int) uint64 { return u.counterReg + uint64(i) }

// entryMAC computes the Partial/Post per-entry MAC over the ciphertext,
// address, and slot counter.
func (u *Unit) entryMAC(cipher *[64]byte, addr, counter uint64) crypt.MAC {
	u.macOps++
	return u.eng.LineMAC(cipher, addr^wpqPageTag, counter)
}

// CanAccept reports whether a new write can enter the persistence domain
// right now: the queue has space and, for Post-WPQ, no deferred MAC is
// outstanding.
func (u *Unit) CanAccept(addr uint64) bool {
	if u.design == PostWPQ && u.deferredPending {
		return false
	}
	if u.queue.MustWait(addr) {
		// The line's current entry is mid-pipeline: same-line write
		// ordering stalls the new value until the old one clears.
		return false
	}
	if u.queue.CanCoalesce(addr) {
		return true
	}
	return !u.queue.Full()
}

// Protect inserts a write into the WPQ under the design's scheme and
// returns the slot used. The caller must have checked CanAccept; the
// latency to charge is Design().InsertLatency(). For Post-WPQ the entry is
// committed immediately with its MAC pending; the caller later invokes
// CompleteDeferredMAC (after MACLatency) to finish it.
func (u *Unit) Protect(addr uint64, plain [64]byte) int {
	slot, _, ok := u.queue.Allocate(addr)
	if !ok {
		panic("misu: Protect called on full queue")
	}
	e := wpq.Entry{
		Addr:    addr,
		Counter: u.slotCounter(slot),
		Valid:   true,
	}
	crypt.XOR(&e.Cipher, &plain, &u.pads[slot])
	switch u.design {
	case FullWPQ:
		u.queue.Commit(slot, e)
		u.updateTree(slot)
	case PartialWPQ:
		e.MAC = u.entryMAC(&e.Cipher, addr, e.Counter)
		u.queue.Commit(slot, e)
	case PostWPQ:
		e.MACPending = true
		u.queue.Commit(slot, e)
		u.deferredPending = true
	}
	if u.onProtect != nil {
		u.onProtect(slot, addr)
	}
	return slot
}

// CompleteDeferredMAC finishes a Post-WPQ entry's deferred MAC.
func (u *Unit) CompleteDeferredMAC(slot int) {
	if u.design != PostWPQ {
		panic("misu: deferred MAC on non-Post design")
	}
	e := u.queue.Entry(slot)
	e.MAC = u.entryMAC(&e.Cipher, e.Addr, e.Counter)
	e.MACPending = false
	u.queue.Commit(slot, e)
	u.deferredPending = false
}

// updateTree recomputes the Full-WPQ L1 MAC of slot's group and the root
// (the two MAC computations of Figure 8 steps 2-3).
func (u *Unit) updateTree(slot int) {
	group := slot / groupSize
	u.l1[group] = u.groupMAC(group)
	u.root = u.rootMAC()
}

// groupMAC MACs the concatenated (addr, cipher) records of one L1 group.
func (u *Unit) groupMAC(group int) crypt.MAC {
	u.macOps++
	buf := make([]byte, 0, groupSize*wpq.EntryDataSize)
	for i := group * groupSize; i < (group+1)*groupSize && i < u.queue.Size(); i++ {
		e := u.queue.Entry(i)
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], e.Addr)
		buf = append(buf, hdr[:]...)
		buf = append(buf, e.Cipher[:]...)
	}
	return u.eng.NodeMAC(buf, wpqPageTag|uint64(group))
}

// rootMAC MACs the L1 MAC registers together with the counter register,
// binding the tree to this drain epoch.
func (u *Unit) rootMAC() crypt.MAC {
	u.macOps++
	groups := (u.queue.Size() + groupSize - 1) / groupSize
	// Fixed-capacity stack buffer: a variable-capacity make escapes and
	// this runs on every Full-WPQ insert. 16 groups covers a 128-entry
	// WPQ; larger ablations spill to one append re-allocation, with the
	// identical byte stream either way.
	var stack [16*crypt.MACSize + 8]byte
	buf := stack[:0]
	for g := 0; g < groups; g++ {
		m := u.l1[g]
		buf = append(buf, m[:]...)
	}
	var reg [8]byte
	binary.LittleEndian.PutUint64(reg[:], u.counterReg)
	buf = append(buf, reg[:]...)
	return u.eng.NodeMAC(buf, wpqPageTag|1<<16)
}

// DecryptSlot returns the plaintext line and address of a live slot (the
// Ma-SU's Figure 11 step 1, or a WPQ read hit): a single XOR.
func (u *Unit) DecryptSlot(slot int) (addr uint64, plain [64]byte) {
	e := u.queue.Entry(slot)
	crypt.XOR(&plain, &e.Cipher, &u.pads[slot])
	return e.Addr, plain
}

// DrainStats accounts the ADR energy spent by a drain, for budget audits.
type DrainStats struct {
	// EntriesWritten is the number of 72-byte slot records flushed.
	EntriesWritten int
	// MACBlocksWritten is the number of 64-byte MAC blocks flushed
	// (Partial/Post only).
	MACBlocksWritten int
	// DeferredMACs is the number of MAC computations performed on ADR
	// power (at most 1, Post only).
	DeferredMACs int
}

// Drain flushes the WPQ image to the NVM drain region on a power failure.
// Per the paper, the drain path performs no security work beyond writing
// the already-protected contents — except Post-WPQ's single reserved
// deferred MAC, completed here on ADR power.
func (u *Unit) Drain() DrainStats {
	u.drains++
	var st DrainStats
	if u.design == PostWPQ && u.deferredPending {
		// Finish the one outstanding deferred MAC using reserved ADR.
		for i := 0; i < u.queue.Size(); i++ {
			if u.queue.Entry(i).MACPending {
				u.CompleteDeferredMAC(i)
				st.DeferredMACs++
			}
		}
	}

	var bitmap uint64
	var hdr [drainHeaderSize]byte
	macs := make([]crypt.MAC, u.queue.Size())
	for i := 0; i < u.queue.Size(); i++ {
		e := u.queue.Entry(i)
		if e.Valid && !e.Cleared {
			bitmap |= 1 << uint(i)
		}
		var rec [wpq.EntryDataSize]byte
		binary.LittleEndian.PutUint64(rec[:8], e.Addr)
		copy(rec[8:], e.Cipher[:])
		u.dev.Write(u.base+drainHeaderSize+uint64(i)*wpq.EntryDataSize, rec[:])
		st.EntriesWritten++
		macs[i] = e.MAC
	}
	binary.LittleEndian.PutUint64(hdr[:], bitmap)
	u.dev.Write(u.base, hdr[:])

	if u.design != FullWPQ {
		macBase := u.base + drainHeaderSize + uint64(u.queue.Size())*wpq.EntryDataSize
		blocks := (u.queue.Size() + 7) / 8
		for b := 0; b < blocks; b++ {
			var blk [64]byte
			for j := 0; j < 8; j++ {
				i := b*8 + j
				if i < len(macs) {
					copy(blk[j*8:], macs[i][:])
				}
			}
			u.dev.Write(macBase+uint64(b)*64, blk[:])
			st.MACBlocksWritten++
		}
	}
	return st
}

// RecoveryError reports an integrity failure while recovering the WPQ.
type RecoveryError struct {
	Slot   int
	Reason string
}

// Error implements the error interface.
func (e *RecoveryError) Error() string {
	return fmt.Sprintf("misu: WPQ recovery failed at slot %d: %s", e.Slot, e.Reason)
}

// Recover reads the drained WPQ image back at boot, verifies its
// integrity against the persistent in-processor state, and returns the
// decrypted live writes in fetch order for the Ma-SU to replay. On
// success the counter register advances past this epoch and fresh pads
// are generated (Section 4.3, Recovery scheme).
func (u *Unit) Recover() ([]RecoveredWrite, error) {
	if !u.eng.Functional() {
		return nil, ErrFastMode
	}
	var hdr [drainHeaderSize]byte
	u.dev.Read(u.base, hdr[:])
	bitmap := binary.LittleEndian.Uint64(hdr[:])

	type slotRec struct {
		addr   uint64
		cipher [64]byte
	}
	recs := make([]slotRec, u.queue.Size())
	for i := range recs {
		var rec [wpq.EntryDataSize]byte
		u.dev.Read(u.base+drainHeaderSize+uint64(i)*wpq.EntryDataSize, rec[:])
		recs[i].addr = binary.LittleEndian.Uint64(rec[:8])
		copy(recs[i].cipher[:], rec[8:])
	}

	switch u.design {
	case FullWPQ:
		// Rebuild the two-level tree over the read-back image and
		// compare with the persistent root register.
		groups := (u.queue.Size() + groupSize - 1) / groupSize
		l1 := make([]crypt.MAC, groups)
		for g := 0; g < groups; g++ {
			buf := make([]byte, 0, groupSize*wpq.EntryDataSize)
			for i := g * groupSize; i < (g+1)*groupSize && i < len(recs); i++ {
				var hdr8 [8]byte
				binary.LittleEndian.PutUint64(hdr8[:], recs[i].addr)
				buf = append(buf, hdr8[:]...)
				buf = append(buf, recs[i].cipher[:]...)
			}
			u.macOps++
			l1[g] = u.eng.NodeMAC(buf, wpqPageTag|uint64(g))
		}
		buf := make([]byte, 0, groups*crypt.MACSize+8)
		for _, m := range l1 {
			buf = append(buf, m[:]...)
		}
		var reg [8]byte
		binary.LittleEndian.PutUint64(reg[:], u.counterReg)
		buf = append(buf, reg[:]...)
		u.macOps++
		if got := u.eng.NodeMAC(buf, wpqPageTag|1<<16); got != u.root {
			return nil, &RecoveryError{Slot: -1, Reason: "WPQ tree root mismatch"}
		}
	default:
		// Verify each live entry's MAC with the internally-derived
		// counter; forging requires replaying the in-processor register,
		// which is impossible (Section 4.3, Design Option 2).
		macBase := u.base + drainHeaderSize + uint64(u.queue.Size())*wpq.EntryDataSize
		for i := range recs {
			if bitmap&(1<<uint(i)) == 0 {
				continue
			}
			var stored crypt.MAC
			u.dev.Read(macBase+uint64(i/8)*64+uint64(i%8)*8, stored[:])
			if got := u.entryMAC(&recs[i].cipher, recs[i].addr, u.slotCounter(i)); got != stored {
				return nil, &RecoveryError{Slot: i, Reason: "entry MAC mismatch"}
			}
		}
	}

	// Decrypt live entries with pads regenerated from the old register.
	// At most one live entry exists per line (same-line write ordering),
	// so slot order is a safe replay order.
	var out []RecoveredWrite
	for i := range recs {
		if bitmap&(1<<uint(i)) == 0 {
			continue
		}
		iv := crypt.MakeIV(wpqPageTag, uint16(i), u.slotCounter(i))
		pad := u.eng.GeneratePad(iv)
		var plain [64]byte
		crypt.XOR(&plain, &recs[i].cipher, &pad)
		out = append(out, RecoveredWrite{Addr: recs[i].addr, Plain: plain})
	}

	// Advance the epoch: the old pads have now been exposed once and are
	// never reused.
	u.counterReg += uint64(u.queue.Size())
	u.regeneratePads()
	u.queue.Reset()
	u.deferredPending = false
	u.l1 = make(map[int]crypt.MAC)
	u.root = crypt.MAC{}
	u.initFullTree()
	return out, nil
}

// StorageOverhead describes the Mi-SU's register/SRAM cost (Table 3).
type StorageOverhead struct {
	PersistentCounterBytes int
	MACRegisterBytes       int
	PadBytes               int
	TagArrayBytes          int
}

// Storage returns the Table 3 storage accounting for this unit.
func (u *Unit) Storage() StorageOverhead {
	n := u.queue.Size()
	var macBytes int
	switch u.design {
	case FullWPQ:
		groups := (n + groupSize - 1) / groupSize
		macBytes = (groups + 1) * crypt.MACSize // L1 registers + root
	default:
		macBytes = n * crypt.MACSize // per-entry MACs stored in the queue
	}
	return StorageOverhead{
		PersistentCounterBytes: 8,
		MACRegisterBytes:       macBytes,
		PadBytes:               n * crypt.BlockSize,
		TagArrayBytes:          n * 8,
	}
}
