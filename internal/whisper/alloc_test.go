package whisper

import (
	"runtime"
	"testing"
	"unsafe"

	"dolos/internal/trace"
)

// TestGenerateAllocatesAboutTheTrace bounds what each benchmark-sized
// trace generation (the generators and sizes of BenchmarkGenerateCell)
// allocates by 2.15 times what the trace holds: the recording chunks and
// the final ops are about 2x, the heap and the image the rest. Zeroing
// the heap's whole capacity up front (48 MB), growing the op stream by
// append (about five times the final slice), or growing the heap's
// backing by doubling instead of reserving it once (2.17x-2.27x) breaks
// it.
func TestGenerateAllocatesAboutTheTrace(t *testing.T) {
	for _, c := range []struct {
		name string
		w    Workload
		p    Params
	}{
		{"Hashmap", Hashmap{}, Params{Transactions: 1000, Seed: 1000}},
		{"Btree", Btree{}, Params{Transactions: 1000, Seed: 1000}},
		{"YCSB-95", YCSB{}, Params{Transactions: 3000, ReadPercent: 95, Seed: 1000}},
	} {
		// Every case records into fresh chunks, as the first
		// generation in a process does.
		trace.ReleaseChunks()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr := c.w.Generate(c.p)
		runtime.ReadMemStats(&after)

		held := uint64(len(tr.Ops))*uint64(unsafe.Sizeof(trace.Op{})) +
			uint64(len(tr.InitImage))*uint64(unsafe.Sizeof(trace.InitLine{}))
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: allocated %.2f MB for a trace of %.2f MB (%.3fx)", c.name, mb(alloc), mb(held), float64(alloc)/float64(held))
		if limit := held * 215 / 100; alloc > limit {
			t.Errorf("%s: generation allocated %.2f MB, over 2.15x the %.2f MB trace", c.name, mb(alloc), mb(held))
		}
	}
}

// allocationJitter is how far apart TotalAlloc deltas of identical
// generations may be: one to three extra 96-byte objects appear in some
// runs (Go 1.24, linux/amd64), from outside the generator's own
// allocations, which are the same in every run.
const allocationJitter = 1024

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// TestGenerateAllocationIgnoresGC pins that what one generation
// allocates does not depend on when the garbage collector last ran:
// after a first generation has left its recording chunks for reuse, the
// same trace generated three times, with two collections before the
// second and the third, allocates the same bytes each time, give or
// take allocationJitter. Recording chunks recycled through a sync.Pool,
// which a collection empties, fails it: the runs after the collections
// allocate their 360,448-byte chunks again.
func TestGenerateAllocationIgnoresGC(t *testing.T) {
	p := Params{Transactions: 200, Seed: 1000}
	Btree{}.Generate(p)
	var allocs [3]uint64
	for i := range allocs {
		if i > 0 {
			runtime.GC()
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Btree{}.Generate(p)
		runtime.ReadMemStats(&after)
		allocs[i] = after.TotalAlloc - before.TotalAlloc
	}
	lo, hi := min(allocs[0], allocs[1], allocs[2]), max(allocs[0], allocs[1], allocs[2])
	if hi-lo > allocationJitter {
		t.Errorf("the same generation allocated %d, %d and %d bytes", allocs[0], allocs[1], allocs[2])
	}
}
