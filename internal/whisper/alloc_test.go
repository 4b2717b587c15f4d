package whisper

import (
	"runtime"
	"testing"
	"unsafe"

	"dolos/internal/trace"
)

// TestGenerateAllocatesAboutTheTrace bounds what one benchmark-sized
// trace generation allocates by a small multiple of what the trace
// holds. Zeroing the heap's whole capacity up front (48 MB) or growing
// the op stream by append (about five times the final slice) breaks it.
func TestGenerateAllocatesAboutTheTrace(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := Hashmap{}.Generate(Params{Transactions: 1000, Seed: 1000})
	runtime.ReadMemStats(&after)

	held := uint64(len(tr.Ops))*uint64(unsafe.Sizeof(trace.Op{})) +
		uint64(len(tr.InitImage))*uint64(unsafe.Sizeof(trace.InitLine{}))
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %.1f MB for a trace of %.1f MB (%.2fx)", mb(alloc), mb(held), float64(alloc)/float64(held))
	if limit := held * 5 / 2; alloc > limit {
		t.Fatalf("generation allocated %.1f MB, over 2.5x the %.1f MB trace", mb(alloc), mb(held))
	}
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
