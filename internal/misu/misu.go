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

// drainHeaderBytes is the bookkeeping prefix of the drain region: the
// live bitmap (the queue's valid bits, which a hardware ADR flush
// carries implicitly with the buffer), one little-endian 64-bit word
// per 64 slots, so slot i's bit is bit i%8 of byte i/8. Same-line write
// ordering (see wpq.MustWait) guarantees at most one live entry per
// line, so replay order needs no further metadata.
func drainHeaderBytes(entries int) uint64 { return uint64((entries+63)/64) * 8 }

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
	root       crypt.MAC   // Full-WPQ tree root register
	l1         []crypt.MAC // Full-WPQ L1 MAC registers, one per group

	// The host computes the MACs above, and the queue's entry MACs,
	// only when they are observed (settle). stale[i] marks L1 group i
	// (Full-WPQ) or slot i's entry MAC (Partial/Post) as owed;
	// rootStale marks the root.
	stale     []bool
	rootStale bool

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
	}
	if design == FullWPQ {
		u.l1 = make([]crypt.MAC, u.groups())
		u.stale = make([]bool, u.groups())
	} else {
		u.stale = make([]bool, entries)
	}
	u.regeneratePads()
	u.initFullTree()
	return u
}

// groups returns the number of Full-WPQ L1 groups.
func (u *Unit) groups() int { return (u.queue.Size() + groupSize - 1) / groupSize }

// initFullTree establishes the Full-WPQ tree over the empty queue so that
// recovery's full rebuild matches the register state even when some
// groups were never written this epoch. Runs at boot alongside pad
// pre-generation, off any critical path: the modelled hardware computes
// every L1 MAC and the root, and the host marks them owed.
func (u *Unit) initFullTree() {
	if u.design != FullWPQ {
		return
	}
	for g := range u.stale {
		u.stale[g] = true
	}
	u.rootStale = true
	u.macOps += uint64(len(u.stale)) + 1
}

// DrainRegionBytes returns the NVM bytes needed to drain a queue of the
// given size: header + per-slot 72-byte records + MAC blocks.
func DrainRegionBytes(entries int) uint64 {
	macBlocks := (entries + 7) / 8
	return drainHeaderBytes(entries) + uint64(entries)*wpq.EntryDataSize + uint64(macBlocks)*64
}

// ErrFastMode reports a recovery attempted on a latency-only crypto
// provider: the drained image's MACs are fakes, so verifying them
// checks nothing.
var ErrFastMode = errors.New("misu: recovery requires the functional crypto provider (fast mode computes latency-only MACs)")

// Design returns the unit's design.
func (u *Unit) Design() Design { return u.design }

// Queue exposes the underlying WPQ (for the controller and statistics).
// An entry's MAC field is filled only when the unit settles, at a drain.
func (u *Unit) Queue() *wpq.Queue { return u.queue }

// CounterRegister returns the persistent counter register value.
func (u *Unit) CounterRegister() uint64 { return u.counterReg }

// MACOps returns the number of MAC computations the modelled Mi-SU
// performs: two per Full-WPQ insert, one per Partial insert or Post
// deferred completion, the boot-time tree and recovery's checks. The
// host computes each one later, when it is observed (settle), or never.
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
// CompleteDeferredMAC (after MACLatency) to finish it. The MACs the
// modelled insert computes are counted and marked owed, not hashed.
// Protect reads *plain once, into the entry's ciphertext.
func (u *Unit) Protect(addr uint64, plain *[64]byte) int {
	slot, _, ok := u.queue.Allocate(addr)
	if !ok {
		panic("misu: Protect called on full queue")
	}
	e := wpq.Entry{
		Addr:    addr,
		Counter: u.slotCounter(slot),
		Valid:   true,
	}
	crypt.XOR(&e.Cipher, plain, &u.pads[slot])
	switch u.design {
	case FullWPQ:
		// Figure 8 steps 2-3: the slot's L1 MAC, then the root.
		u.queue.Commit(slot, e)
		u.stale[slot/groupSize] = true
		u.rootStale = true
		u.macOps += 2
	case PartialWPQ:
		u.queue.Commit(slot, e)
		u.stale[slot] = true
		u.macOps++
	case PostWPQ:
		// The MAC is computed, and owed, from the deferred completion.
		e.MACPending = true
		u.queue.Commit(slot, e)
		u.deferredPending = true
	}
	if u.onProtect != nil {
		u.onProtect(slot, addr)
	}
	return slot
}

// CompleteDeferredMAC finishes a Post-WPQ entry's deferred MAC. The
// commit stamps the entry with a new Seq, which orders the Ma-SU's
// fetches; the MAC itself is owed until observed.
func (u *Unit) CompleteDeferredMAC(slot int) {
	if u.design != PostWPQ {
		panic("misu: deferred MAC on non-Post design")
	}
	e := *u.queue.Entry(slot)
	e.MACPending = false
	u.queue.Commit(slot, e)
	u.stale[slot] = true
	u.macOps++
	u.deferredPending = false
}

// settle computes every owed MAC from the queue's current entries: the
// stale Full-WPQ L1 groups and root, or the stale entry MACs, which it
// stores without touching Seq. Each value is the one the modelled
// hardware computed when it marked it, because only Protect changes a
// slot's address or ciphertext and every Protect marks it again.
func (u *Unit) settle() {
	if u.design == FullWPQ {
		for g, stale := range u.stale {
			if stale {
				u.l1[g] = u.groupMAC(g, u.queueRecord)
				u.stale[g] = false
			}
		}
		if u.rootStale {
			u.root = u.rootMAC(u.l1)
			u.rootStale = false
		}
		return
	}
	for i, stale := range u.stale {
		if stale {
			e := u.queue.Entry(i)
			u.queue.SetMAC(i, u.entryMAC(&e.Cipher, e.Addr, e.Counter))
			u.stale[i] = false
		}
	}
}

// putRecord writes a slot's drained record — the address, then the
// ciphertext — into dst[:wpq.EntryDataSize].
func putRecord(dst []byte, addr uint64, cipher *[64]byte) {
	binary.LittleEndian.PutUint64(dst[:8], addr)
	copy(dst[8:wpq.EntryDataSize], cipher[:])
}

// queueRecord writes slot i's record from the live queue.
func (u *Unit) queueRecord(i int, dst []byte) {
	e := u.queue.Entry(i)
	putRecord(dst, e.Addr, &e.Cipher)
}

// groupMAC MACs the concatenated records of one L1 group, each written
// by rec; settle reads them from the queue, Recover from the drained
// image.
func (u *Unit) groupMAC(group int, rec func(i int, dst []byte)) crypt.MAC {
	var stack [groupSize * wpq.EntryDataSize]byte
	n := 0
	for i := group * groupSize; i < (group+1)*groupSize && i < u.queue.Size(); i++ {
		rec(i, stack[n:])
		n += wpq.EntryDataSize
	}
	return u.eng.NodeMAC(stack[:n], wpqPageTag|uint64(group))
}

// rootMAC MACs the L1 MACs together with the counter register, binding
// the tree to this drain epoch.
func (u *Unit) rootMAC(l1 []crypt.MAC) crypt.MAC {
	// 16 groups covers a 128-entry WPQ on the stack; larger ablations
	// spill to one append re-allocation, with the identical byte stream.
	var stack [16*crypt.MACSize + 8]byte
	buf := stack[:0]
	for _, m := range l1 {
		buf = append(buf, m[:]...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, u.counterReg)
	return u.eng.NodeMAC(buf, wpqPageTag|1<<16)
}

// DecryptSlot returns the plaintext line and address of a live slot (the
// Ma-SU's Figure 11 step 1, or a WPQ read hit): a single XOR of the
// entry, read in place.
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
// Per the paper, the modelled drain performs no security work beyond
// writing the already-protected contents — except Post-WPQ's single
// reserved deferred MAC, completed here on ADR power. The host, though,
// computes here every MAC the unit still owes (settle) before writing
// any byte, so the image is the one eager hashing would drain.
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
	u.settle()

	n := u.queue.Size()
	hdr := drainHeaderBytes(n)
	img := make([]byte, hdr+uint64(n)*wpq.EntryDataSize)
	for i := 0; i < n; i++ {
		e := u.queue.Entry(i)
		if e.Valid && !e.Cleared {
			img[i/8] |= 1 << uint(i%8)
		}
		putRecord(img[hdr+uint64(i)*wpq.EntryDataSize:], e.Addr, &e.Cipher)
		st.EntriesWritten++
	}
	u.dev.Write(u.base, img)

	if u.design != FullWPQ {
		macBase := u.base + uint64(len(img))
		for b := 0; b*8 < n; b++ {
			var blk [64]byte
			for j := 0; j < 8 && b*8+j < n; j++ {
				m := u.queue.Entry(b*8 + j).MAC
				copy(blk[j*8:], m[:])
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
	u.settle()
	n := u.queue.Size()
	hdr := drainHeaderBytes(n)
	img := make([]byte, hdr+uint64(n)*wpq.EntryDataSize)
	u.dev.Read(u.base, img)
	live := func(i int) bool { return img[i/8]&(1<<uint(i%8)) != 0 }
	record := func(i int) []byte {
		return img[hdr+uint64(i)*wpq.EntryDataSize:][:wpq.EntryDataSize]
	}
	addrOf := func(i int) uint64 { return binary.LittleEndian.Uint64(record(i)) }
	cipherOf := func(i int) *[64]byte { return (*[64]byte)(record(i)[8:]) }

	switch u.design {
	case FullWPQ:
		// Rebuild the two-level tree over the read-back image and
		// compare with the persistent root register.
		l1 := make([]crypt.MAC, u.groups())
		for g := range l1 {
			l1[g] = u.groupMAC(g, func(i int, dst []byte) { copy(dst, record(i)) })
		}
		u.macOps += uint64(len(l1)) + 1
		if u.rootMAC(l1) != u.root {
			return nil, &RecoveryError{Slot: -1, Reason: "WPQ tree root mismatch"}
		}
	default:
		// Verify each live entry's MAC with the internally-derived
		// counter; forging requires replaying the in-processor register,
		// which is impossible (Section 4.3, Design Option 2).
		macBase := u.base + uint64(len(img))
		for i := 0; i < n; i++ {
			if !live(i) {
				continue
			}
			var stored crypt.MAC
			u.dev.Read(macBase+uint64(i/8)*64+uint64(i%8)*8, stored[:])
			u.macOps++
			if u.entryMAC(cipherOf(i), addrOf(i), u.slotCounter(i)) != stored {
				return nil, &RecoveryError{Slot: i, Reason: "entry MAC mismatch"}
			}
		}
	}

	// Decrypt live entries with pads regenerated from the old register.
	// At most one live entry exists per line (same-line write ordering),
	// so slot order is a safe replay order.
	var out []RecoveredWrite
	for i := 0; i < n; i++ {
		if !live(i) {
			continue
		}
		iv := crypt.MakeIV(wpqPageTag, uint16(i), u.slotCounter(i))
		pad := u.eng.GeneratePad(iv)
		w := RecoveredWrite{Addr: addrOf(i)}
		crypt.XOR(&w.Plain, cipherOf(i), &pad)
		out = append(out, w)
	}

	// Advance the epoch: the old pads have now been exposed once and are
	// never reused.
	u.counterReg += uint64(n)
	u.regeneratePads()
	u.queue.Reset()
	u.deferredPending = false
	for i := range u.stale {
		u.stale[i] = false
	}
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
