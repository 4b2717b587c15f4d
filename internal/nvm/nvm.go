// Package nvm models a byte-addressable persistent memory device in the
// style of a DDR-attached PCM DIMM (Table 1: 16 GB, 150 ns reads, 500 ns
// writes). The device is functional — it stores real bytes, sparsely, so
// crash-recovery and attack-detection tests operate on genuine memory
// images — and timed, with bank-level parallelism for request occupancy.
package nvm

import (
	"fmt"

	"dolos/internal/dense"
	"dolos/internal/sim"
)

// Timing constants at the 4 GHz core clock.
const (
	// ReadLatency is the array read latency (150 ns).
	ReadLatency sim.Cycle = 150 * sim.CyclesPerNanosecond
	// WriteLatency is the array write latency (500 ns).
	WriteLatency sim.Cycle = 500 * sim.CyclesPerNanosecond
)

// PageSize is the allocation granularity of the sparse backing store.
const PageSize = 4096

// LineSize is the access granularity (one cache line).
const LineSize = 64

// DefaultBanks is the default number of independently-occupied banks.
const DefaultBanks = 16

// Device is a sparse persistent-memory module. The zero value is not
// usable; construct with NewDevice. Contents survive simulated power
// failures by construction: only explicit Clear wipes them.
type Device struct {
	eng  *sim.Engine
	size uint64
	// pages is the sparse backing store: a dense two-level table over
	// page index (addr/PageSize), nil until a page is first written.
	// Dense indexing replaced the former map so the per-access page
	// lookup on the write path is two array dereferences (DESIGN.md
	// §12); allocated counts the non-nil entries so AllocatedPages
	// stays O(1).
	pages     *dense.Table[*[PageSize]byte]
	allocated int
	banks     []*sim.Server

	reads, writes uint64

	// regions are the write-back regions and write guards owners
	// registered (SetWriteBack, SetWriteGuard); they do not overlap.
	regions []*WriteBack

	// onAccess, when non-nil, observes every timed access with its bank
	// service window (telemetry). Purely observational.
	onAccess func(write bool, addr uint64, start, end sim.Cycle)
}

// WriteBack is a region of the device whose owner holds state the
// device's bytes depend on, registered with SetWriteBack or
// SetWriteGuard. The owner calls Mark while it may hold such state;
// pending is cleared while flush runs, so the owner's own accesses do
// not re-enter it.
type WriteBack struct {
	lo, hi  uint64
	flush   func(lo, hi uint64)
	guard   bool // observed by writes only
	pending bool
}

// Mark notes that the region's owner may hold state the device's bytes
// depend on: the next access that observes the region calls its flush.
func (w *WriteBack) Mark() { w.pending = true }

// NewDevice creates a device of the given capacity in bytes with the given
// number of banks (0 means DefaultBanks). The engine may be nil for purely
// functional use (recovery tooling, attack injection, tests).
func NewDevice(eng *sim.Engine, size uint64, banks int) *Device {
	if banks <= 0 {
		banks = DefaultBanks
	}
	d := &Device{
		eng:   eng,
		size:  size,
		pages: dense.NewTable[*[PageSize]byte]((size + PageSize - 1) / PageSize),
	}
	if eng != nil {
		d.banks = make([]*sim.Server, banks)
		for i := range d.banks {
			d.banks[i] = sim.NewServer(eng, fmt.Sprintf("nvm-bank-%d", i))
		}
	}
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// Reads returns the number of timed read accesses issued.
func (d *Device) Reads() uint64 { return d.reads }

// Writes returns the number of timed write accesses issued.
func (d *Device) Writes() uint64 { return d.writes }

// AllocatedPages returns how many 4 KB pages are materialized.
func (d *Device) AllocatedPages() int {
	d.observeAll(false)
	return d.allocated
}

// SetWriteBack makes [lo, hi) a write-back region owned by the caller:
// the owner may hold bytes of the region newer than the device's copy
// (it says so with Mark), and the device calls flush with the
// overlapping range before any access that observes those bytes —
// Read, Write, Snapshot, Restore, Clear and AllocatedPages. flush must
// write every newer byte in the range it is given.
func (d *Device) SetWriteBack(lo, hi uint64, flush func(lo, hi uint64)) *WriteBack {
	return d.addRegion(&WriteBack{lo: lo, hi: hi, flush: flush})
}

// SetWriteGuard makes [lo, hi) a write-guarded region: the device's
// bytes there are current, but the owner may hold state still to be
// derived from them (it says so with Mark), so the device calls flush
// with the overlapping range before any write that would change them —
// Write, Restore and Clear. flush must derive, from the bytes as they
// are, everything it owes for the range it is given.
func (d *Device) SetWriteGuard(lo, hi uint64, flush func(lo, hi uint64)) *WriteBack {
	return d.addRegion(&WriteBack{lo: lo, hi: hi, flush: flush, guard: true})
}

func (d *Device) addRegion(w *WriteBack) *WriteBack {
	for _, o := range d.regions {
		if w.lo < o.hi && o.lo < w.hi {
			panic(fmt.Sprintf("nvm: region [%#x, %#x) overlaps [%#x, %#x)", w.lo, w.hi, o.lo, o.hi))
		}
	}
	d.regions = append(d.regions, w)
	return w
}

// observe flushes the part of every pending region that an access to
// [lo, hi) observes: write-back regions on any access, write guards on
// writes only.
func (d *Device) observe(lo, hi uint64, write bool) {
	for _, w := range d.regions {
		if !w.pending || hi <= w.lo || lo >= w.hi || (w.guard && !write) {
			continue
		}
		w.pending = false
		w.flush(max(lo, w.lo), min(hi, w.hi))
		// A partial flush may leave newer state elsewhere in the region.
		w.pending = w.pending || lo > w.lo || hi < w.hi
	}
}

// observeAll flushes every region an access to the whole device
// observes.
func (d *Device) observeAll(write bool) { d.observe(0, d.size, write) }

// BankCount returns the number of banks (0 on a purely functional device).
func (d *Device) BankCount() int { return len(d.banks) }

// BankIndex returns the bank serving addr (line interleaving).
func (d *Device) BankIndex(addr uint64) int {
	return int((addr / LineSize) % uint64(len(d.banks)))
}

// SetAccessHook installs (or with nil removes) the timed-access observer:
// it fires at each access's completion with the bank service window.
func (d *Device) SetAccessHook(fn func(write bool, addr uint64, start, end sim.Cycle)) {
	d.onAccess = fn
}

func (d *Device) page(addr uint64, create bool) *[PageSize]byte {
	if addr >= d.size {
		panic(fmt.Sprintf("nvm: address %#x out of range (size %#x)", addr, d.size))
	}
	id := addr / PageSize
	if !create {
		return d.pages.Get(id)
	}
	slot := d.pages.Ptr(id)
	if *slot == nil {
		*slot = new([PageSize]byte)
		d.allocated++
	}
	return *slot
}

// Read copies len(buf) bytes starting at addr into buf. Unwritten memory
// reads as zero. This is the functional path; use Access for timing.
func (d *Device) Read(addr uint64, buf []byte) {
	d.observe(addr, addr+uint64(len(buf)), false)
	for n := 0; n < len(buf); {
		off := (addr + uint64(n)) % PageSize
		chunk := PageSize - off
		if rem := uint64(len(buf) - n); chunk > rem {
			chunk = rem
		}
		if p := d.page(addr+uint64(n), false); p != nil {
			copy(buf[n:n+int(chunk)], p[off:off+chunk])
		} else {
			for i := uint64(0); i < chunk; i++ {
				buf[n+int(i)] = 0
			}
		}
		n += int(chunk)
	}
}

// Write copies data into the device starting at addr.
func (d *Device) Write(addr uint64, data []byte) {
	d.observe(addr, addr+uint64(len(data)), true)
	for n := 0; n < len(data); {
		off := (addr + uint64(n)) % PageSize
		chunk := PageSize - off
		if rem := uint64(len(data) - n); chunk > rem {
			chunk = rem
		}
		p := d.page(addr+uint64(n), true)
		copy(p[off:off+chunk], data[n:n+int(chunk)])
		n += int(chunk)
	}
}

// ReadLine reads the 64-byte line containing addr (aligned down).
func (d *Device) ReadLine(addr uint64) [LineSize]byte {
	var line [LineSize]byte
	d.Read(addr&^uint64(LineSize-1), line[:])
	return line
}

// WriteLine writes a 64-byte line at addr (aligned down).
func (d *Device) WriteLine(addr uint64, line [LineSize]byte) {
	d.Write(addr&^uint64(LineSize-1), line[:])
}

// bank maps an address to its bank by line interleaving.
func (d *Device) bank(addr uint64) *sim.Server {
	return d.banks[(addr/LineSize)%uint64(len(d.banks))]
}

// AccessRead occupies addr's bank for ReadLatency and invokes done when the
// data is available. Requires a timed device (non-nil engine).
func (d *Device) AccessRead(addr uint64, done func()) {
	d.reads++
	d.bank(addr).Submit(ReadLatency, func(start, end sim.Cycle) {
		if d.onAccess != nil {
			d.onAccess(false, addr, start, end)
		}
		if done != nil {
			done()
		}
	})
}

// AccessWrite occupies addr's bank for WriteLatency and invokes done when
// the write completes in the array.
func (d *Device) AccessWrite(addr uint64, done func()) {
	d.writes++
	d.bank(addr).Submit(WriteLatency, func(start, end sim.Cycle) {
		if d.onAccess != nil {
			d.onAccess(true, addr, start, end)
		}
		if done != nil {
			done()
		}
	})
}

// ReadReadyAt returns the cycle at which a read of addr issued now would
// complete, without issuing it.
func (d *Device) ReadReadyAt(addr uint64) sim.Cycle {
	return d.bank(addr).FreeAt() + ReadLatency
}

// Snapshot returns a deep copy of the device contents, used by the attack
// model to implement replay (rollback) attacks and by tests to compare
// memory images across crashes.
func (d *Device) Snapshot() map[uint64][PageSize]byte {
	d.observeAll(false)
	out := make(map[uint64][PageSize]byte, d.allocated)
	d.pages.Range(func(id uint64, p **[PageSize]byte) bool {
		if *p != nil {
			out[id] = **p
		}
		return true
	})
	return out
}

// Restore overwrites the device contents with a snapshot taken earlier.
func (d *Device) Restore(snap map[uint64][PageSize]byte) {
	d.observeAll(true)
	d.pages.Reset()
	d.allocated = 0
	for id, img := range snap {
		p := img
		d.pages.Set(id, &p)
		d.allocated++
	}
}

// Clear erases all contents (a fresh, never-written device).
func (d *Device) Clear() {
	d.observeAll(true)
	d.pages.Reset()
	d.allocated = 0
}
