package cache

import (
	"testing"

	"dolos/internal/sim"
)

// fakeBackend records accesses and answers reads after a fixed delay.
type fakeBackend struct {
	eng    *sim.Engine
	delay  sim.Cycle
	reads  []uint64
	evicts []uint64
}

func (f *fakeBackend) ReadLine(addr uint64, done sim.Handler, arg uint64) {
	f.reads = append(f.reads, addr)
	f.eng.After(f.delay, func() { done(arg) })
}

func (f *fakeBackend) EvictLine(addr uint64) { f.evicts = append(f.evicts, addr) }

func newTestHier() (*sim.Engine, *fakeBackend, *Hierarchy) {
	eng := sim.NewEngine()
	be := &fakeBackend{eng: eng, delay: 600}
	return eng, be, NewHierarchy(eng, be)
}

func TestReadMissGoesToMemory(t *testing.T) {
	eng, be, h := newTestHier()
	var doneAt sim.Cycle
	h.Read(0x1000, func() { doneAt = eng.Now() })
	eng.Run(0)
	want := L1Latency + L2Latency + LLCLatency + 600
	if doneAt != want {
		t.Fatalf("miss completed at %d, want %d", doneAt, want)
	}
	if len(be.reads) != 1 || be.reads[0] != 0x1000 {
		t.Fatalf("backend reads = %v", be.reads)
	}
}

func TestReadHitL1(t *testing.T) {
	eng, be, h := newTestHier()
	h.Read(0x1000, func() {})
	eng.Run(0)
	var doneAt sim.Cycle
	start := eng.Now()
	h.Read(0x1000, func() { doneAt = eng.Now() - start })
	eng.Run(0)
	if doneAt != L1Latency {
		t.Fatalf("L1 hit latency %d, want %d", doneAt, L1Latency)
	}
	if len(be.reads) != 1 {
		t.Fatalf("hit went to memory: %v", be.reads)
	}
}

func TestWriteAllocatesDirty(t *testing.T) {
	_, _, h := newTestHier()
	lat := h.Write(0x2000)
	if lat != L1Latency {
		t.Fatalf("write latency %d", lat)
	}
	if !h.L1().IsDirty(0x2000) {
		t.Fatal("write did not dirty L1")
	}
}

func TestFlushLineCleans(t *testing.T) {
	_, _, h := newTestHier()
	h.Write(0x3000)
	if !h.FlushLine(0x3000) {
		t.Fatal("flush of dirty line reported clean")
	}
	if h.L1().IsDirty(0x3000) {
		t.Fatal("line dirty after flush")
	}
	if h.FlushLine(0x3000) {
		t.Fatal("second flush reported dirty")
	}
	// clwb semantics: line remains cached.
	if !h.L1().Contains(0x3000) {
		t.Fatal("clwb evicted the line")
	}
}

func TestFlushAbsentLine(t *testing.T) {
	_, _, h := newTestHier()
	if h.FlushLine(0x99999940) {
		t.Fatal("flush of absent line reported dirty")
	}
}

func TestDirtyEvictionReachesBackend(t *testing.T) {
	eng, be, h := newTestHier()
	// L1 is 32KB 2-way with 64B lines -> 256 sets. Writing many lines that
	// map to the same L1/L2/LLC sets eventually spills a dirty victim to
	// the backend. Write far more distinct lines than LLC ways for one set.
	// LLC: 8MB 16-way -> 8192 sets. Use stride = 8192*64 to hammer set 0.
	stride := uint64(8192 * 64)
	for i := uint64(0); i < 40; i++ {
		h.Write(i * stride)
	}
	eng.Run(0)
	if len(be.evicts) == 0 {
		t.Fatal("no dirty LLC victim reached the backend")
	}
}

func TestInvalidateAllHierarchy(t *testing.T) {
	eng, _, h := newTestHier()
	h.Write(0x4000)
	h.Read(0x5000, func() {})
	eng.Run(0)
	h.InvalidateAll()
	if h.L1().Occupancy()+h.L2().Occupancy()+h.LLC().Occupancy() != 0 {
		t.Fatal("caches not empty after InvalidateAll")
	}
}

func TestMemReadsCounter(t *testing.T) {
	eng, _, h := newTestHier()
	h.Read(0, func() {})
	h.Read(0x100000, func() {})
	eng.Run(0)
	if h.MemReads() != 2 {
		t.Fatalf("MemReads = %d", h.MemReads())
	}
}
