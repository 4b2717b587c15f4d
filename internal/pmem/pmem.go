// Package pmem provides the persistent-memory programming model the
// workloads are written against: a byte-addressable persistent heap with
// a bump allocator, explicit cache-line flush (clwb) and fence (sfence)
// primitives, and PMDK-style undo-log transactions. Every access is
// recorded into a trace for the timing simulator, and the heap image plus
// undo log support genuine crash-recovery checks.
package pmem

import (
	"encoding/binary"
	"fmt"

	"dolos/internal/sim"
	"dolos/internal/trace"
)

// LineSize is the persistence granularity.
const LineSize = 64

// Per-access compute costs modeling the instruction work around memory
// operations (pointer chasing, hashing, comparisons). These put the six
// workloads in the paper's observed WPQ inter-arrival regime (~473
// cycles); see DESIGN.md §7.
const (
	ReadOverhead  sim.Cycle = 25
	WriteOverhead sim.Cycle = 35
	FlushOverhead sim.Cycle = 10
)

// minBacking is the first backing allocation of a heap; later growth
// doubles it.
const minBacking = 64 << 10

// Heap is a persistent heap backed by a plaintext application image and
// an operation recorder.
type Heap struct {
	base uint64
	size uint64
	// mem backs the image's first len(mem) bytes. It grows with use up to
	// size, so a heap pays for the bytes it touches, not its capacity;
	// bytes past it have never been written and read as zero.
	mem  []byte
	next uint64
	rec  *trace.Recorder
}

// NewHeap creates a heap of `size` bytes whose first byte sits at NVM
// address base. Accesses are recorded into rec (which may be nil for
// purely functional use).
func NewHeap(base, size uint64, rec *trace.Recorder) *Heap {
	if base%LineSize != 0 {
		panic("pmem: unaligned heap base")
	}
	return &Heap{base: base, size: size, rec: rec}
}

// Base returns the heap's NVM base address.
func (h *Heap) Base() uint64 { return h.base }

// Size returns the heap capacity in bytes.
func (h *Heap) Size() uint64 { return h.size }

// Used returns the bytes allocated so far.
func (h *Heap) Used() uint64 { return h.next }

// Recorder returns the trace recorder (may be nil).
func (h *Heap) Recorder() *trace.Recorder { return h.rec }

// SetRecorder attaches (or detaches, with nil) the trace recorder. The
// workloads warm up unrecorded and attach the recorder for the measured
// phase, mirroring the paper's fast-forwarding.
func (h *Heap) SetRecorder(rec *trace.Recorder) { h.rec = rec }

// Alloc reserves n bytes, 64-byte aligned, and returns the NVM address.
func (h *Heap) Alloc(n uint64) uint64 {
	n = (n + LineSize - 1) &^ uint64(LineSize-1)
	if h.next+n > h.size {
		panic(fmt.Sprintf("pmem: heap exhausted: %d + %d > %d", h.next, n, h.size))
	}
	addr := h.base + h.next
	h.next += n
	return addr
}

// check panics unless [addr, addr+n) lies inside the heap, grows the
// backing to cover it, and returns addr's offset into the image. The
// bound is written so that addr+n cannot wrap.
func (h *Heap) check(addr, n uint64) uint64 {
	if addr < h.base || n > h.size || addr-h.base > h.size-n {
		panic(fmt.Sprintf("pmem: access [%#x,+%d) outside heap [%#x,+%d)", addr, n, h.base, h.size))
	}
	off := addr - h.base
	if off+n > uint64(len(h.mem)) {
		h.grow(off + n)
	}
	return off
}

// grow extends the backing to cover the first end bytes: to twice its
// length, at least minBacking and whole lines, at most the heap size.
// The new bytes are zero.
func (h *Heap) grow(end uint64) {
	end = (end + LineSize - 1) &^ uint64(LineSize-1)
	h.resize(max(end, 2*uint64(len(h.mem)), minBacking))
}

// Reserve backs the heap's first n bytes (whole lines, at most its size)
// at once, for a caller that knows how much it will touch: growing to
// that by doubling allocates about twice as much and copies at each
// step. Later accesses past it still grow the backing.
func (h *Heap) Reserve(n uint64) {
	if n > uint64(len(h.mem)) {
		h.resize((n + LineSize - 1) &^ uint64(LineSize-1))
	}
}

// resize reallocates the backing at n bytes, at most the heap size,
// keeping its contents; the new bytes are zero.
func (h *Heap) resize(n uint64) {
	mem := make([]byte, min(n, h.size))
	copy(mem, h.mem)
	h.mem = mem
}

// Line returns the current content of the 64-byte line containing addr.
func (h *Heap) Line(addr uint64) [64]byte {
	off := h.check(addr&^uint64(LineSize-1), LineSize)
	var line [64]byte
	copy(line[:], h.mem[off:off+LineSize])
	return line
}

// SetLine overwrites a line in the application image without recording
// (used when reconstructing a heap from recovered NVM contents).
func (h *Heap) SetLine(addr uint64, line [64]byte) {
	off := h.check(addr&^uint64(LineSize-1), LineSize)
	copy(h.mem[off:off+LineSize], line[:])
}

// UsedImage returns every non-zero 64-byte line in the allocated part of
// the heap — the checkpoint image after a warm-up phase. It counts those
// lines first so the result is allocated once, at its exact length.
func (h *Heap) UsedImage() []trace.InitLine {
	// Allocated lines past the backing were never written, so are zero.
	end := min(h.next, uint64(len(h.mem)))
	n := 0
	for off := uint64(0); off < end; off += LineSize {
		if [64]byte(h.mem[off:off+LineSize]) != ([64]byte{}) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]trace.InitLine, 0, n)
	for off := uint64(0); off < end; off += LineSize {
		if line := [64]byte(h.mem[off : off+LineSize]); line != ([64]byte{}) {
			out = append(out, trace.InitLine{Addr: h.base + off, Data: line})
		}
	}
	return out
}

// Compute records pure compute cycles.
func (h *Heap) Compute(c sim.Cycle) {
	if h.rec != nil {
		h.rec.Compute(c)
	}
}

// Read copies n bytes at addr into buf, recording the loads.
func (h *Heap) Read(addr uint64, buf []byte) {
	off := h.check(addr, uint64(len(buf)))
	copy(buf, h.mem[off:off+uint64(len(buf))])
	if h.rec != nil {
		for line := addr &^ 63; line < addr+uint64(len(buf)); line += LineSize {
			h.rec.Compute(ReadOverhead)
			h.rec.Read(line)
		}
	}
}

// ReadU64 loads a 64-bit word.
func (h *Heap) ReadU64(addr uint64) uint64 {
	var b [8]byte
	h.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Write stores data at addr, recording one store per touched line with
// the line's post-store contents.
func (h *Heap) Write(addr uint64, data []byte) {
	off := h.check(addr, uint64(len(data)))
	copy(h.mem[off:off+uint64(len(data))], data)
	if h.rec != nil {
		for line := addr &^ 63; line < addr+uint64(len(data)); line += LineSize {
			h.rec.Compute(WriteOverhead)
			h.rec.Write(line, h.Line(line))
		}
	}
}

// WriteU64 stores a 64-bit word.
func (h *Heap) WriteU64(addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(addr, b[:])
}

// Flush records a clwb of addr's line with its current contents.
func (h *Heap) Flush(addr uint64) {
	addr &^= 63
	h.check(addr, LineSize)
	if h.rec != nil {
		h.rec.Compute(FlushOverhead)
		h.rec.Flush(addr, h.Line(addr))
	}
}

// FlushRange flushes every line overlapping [addr, addr+n).
func (h *Heap) FlushRange(addr, n uint64) {
	for line := addr &^ 63; line < addr+n; line += LineSize {
		h.Flush(line)
	}
}

// Fence records an sfence.
func (h *Heap) Fence() {
	if h.rec != nil {
		h.rec.Fence()
	}
}
