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
		// Two collections empty trace's chunk pool, so every case
		// records into fresh chunks, as the first generation does.
		runtime.GC()
		runtime.GC()
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

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
