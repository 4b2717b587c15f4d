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

	// accesses holds each timed access in flight, from submission to
	// its bank's completion; a bank job's argument is its row, and
	// accessDoneFn, bound once, completes it.
	accesses     sim.Slab[access]
	accessDoneFn sim.Handler

	reads, writes uint64

	// regions are the write-back regions owners registered
	// (SetWriteBack); they do not overlap.
	regions []*WriteBack

	// onAccess, when non-nil, observes every timed access with its bank
	// service window (telemetry). Purely observational.
	onAccess func(write bool, addr uint64, start, end sim.Cycle)
}

// access is one timed access in flight: the requester's completion and
// what the access hook reports.
type access struct {
	addr  uint64
	write bool
	done  sim.Handler
	arg   uint64
}

// WriteBack is a region of the device whose owner may hold bytes newer
// than the device's copy, registered with SetWriteBack. The owner calls
// Mark while it may hold such bytes; pending is cleared while flush
// runs, so the owner's own accesses do not re-enter it.
type WriteBack struct {
	dev     *Device
	lo, hi  uint64
	flush   func(lo, hi uint64)
	pending bool
}

// Mark notes that the region's owner may hold bytes newer than the
// device's: the next access that observes the region calls its flush.
func (w *WriteBack) Mark() { w.pending = true }

// ReadLine reads the 64-byte line containing addr (aligned down), which
// must lie in the region, as the device holds it, without observing the
// region: no flush runs. Only the owner reads this way, because the
// bytes may be older than the ones it holds.
func (w *WriteBack) ReadLine(addr uint64) [LineSize]byte {
	addr = w.regionLine(addr)
	var line [LineSize]byte
	if p := w.dev.page(addr, false); p != nil {
		off := addr % PageSize
		copy(line[:], p[off:off+LineSize])
	}
	return line
}

// WriteLine writes *line to the 64-byte line containing addr (aligned
// down), which must lie in the region, without observing the region: no
// flush runs. Only the owner writes this way, over a line for which it
// holds no newer bytes.
func (w *WriteBack) WriteLine(addr uint64, line *[LineSize]byte) {
	addr = w.regionLine(addr)
	off := addr % PageSize
	copy(w.dev.page(addr, true)[off:off+LineSize], line[:])
}

// regionLine aligns addr down to its line and panics unless the line
// lies in the region.
func (w *WriteBack) regionLine(addr uint64) uint64 {
	addr &^= LineSize - 1
	if addr < w.lo || addr+LineSize > w.hi {
		panic(fmt.Sprintf("nvm: owner access at %#x outside its region [%#x, %#x)", addr, w.lo, w.hi))
	}
	return addr
}

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
	d.accessDoneFn = d.accessDone
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
	d.observeAll()
	return d.allocated
}

// SetWriteBack makes [lo, hi) a write-back region owned by the caller:
// the owner may hold bytes of the region newer than the device's copy
// (it says so with Mark), and the device calls flush with the
// overlapping range before any access that observes those bytes —
// Read, Write, Snapshot, Restore, Clear and AllocatedPages. flush must
// write every newer byte in the range it is given. Regions may not
// overlap.
func (d *Device) SetWriteBack(lo, hi uint64, flush func(lo, hi uint64)) *WriteBack {
	for _, o := range d.regions {
		if lo < o.hi && o.lo < hi {
			panic(fmt.Sprintf("nvm: region [%#x, %#x) overlaps [%#x, %#x)", lo, hi, o.lo, o.hi))
		}
	}
	w := &WriteBack{dev: d, lo: lo, hi: hi, flush: flush}
	d.regions = append(d.regions, w)
	return w
}

// observe flushes the part of every pending region that an access to
// [lo, hi) observes.
func (d *Device) observe(lo, hi uint64) {
	for _, w := range d.regions {
		if !w.pending || hi <= w.lo || lo >= w.hi {
			continue
		}
		w.pending = false
		w.flush(max(lo, w.lo), min(hi, w.hi))
		// A partial flush may leave newer state elsewhere in the region.
		w.pending = w.pending || lo > w.lo || hi < w.hi
	}
}

// observeAll flushes every pending region: the access observes the
// whole device.
func (d *Device) observeAll() { d.observe(0, d.size) }

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
	d.observe(addr, addr+uint64(len(buf)))
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
	d.observe(addr, addr+uint64(len(data)))
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

// AccessRead occupies addr's bank for ReadLatency and calls done(arg),
// if done is non-nil, when the data is available. Requires a timed
// device (non-nil engine).
func (d *Device) AccessRead(addr uint64, done sim.Handler, arg uint64) {
	d.reads++
	d.bank(addr).Submit(ReadLatency, d.accessDoneFn, d.accesses.Put(access{addr: addr, done: done, arg: arg}))
}

// AccessWrite occupies addr's bank for WriteLatency and calls done(arg),
// if done is non-nil, when the write completes in the array.
func (d *Device) AccessWrite(addr uint64, done sim.Handler, arg uint64) {
	d.writes++
	d.bank(addr).Submit(WriteLatency, d.accessDoneFn, d.accesses.Put(access{addr: addr, write: true, done: done, arg: arg}))
}

// accessDone completes the access in row i at the end of its bank
// service: the service started one access latency ago.
func (d *Device) accessDone(i uint64) {
	a := d.accesses.Take(i)
	if d.onAccess != nil {
		lat := ReadLatency
		if a.write {
			lat = WriteLatency
		}
		now := d.eng.Now()
		d.onAccess(a.write, a.addr, now-lat, now)
	}
	if a.done != nil {
		a.done(a.arg)
	}
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
	d.observeAll()
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
	d.observeAll()
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
	d.observeAll()
	d.pages.Reset()
	d.allocated = 0
}
