package cpu

import (
	"runtime"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/whisper"
)

// Allocation bounds of one single-core Run of the Hashmap trace below,
// measured with Go 1.24 on linux/amd64 on the in-order front-end that
// the shared issue loop replaced: 3,662 allocations and at most
// 4,840,416 bytes. The byte bound adds 0.25% for runtime jitter. The
// trace flushes 529 lines, so a persist path that copies each 64-byte
// line into a per-flush closure adds over 35 KB and fails it, even when
// the number of allocations stays the same.
const (
	runAllocsBound = 3662
	runBytesBound  = 4_852_500
)

// TestRunAllocs pins the allocation shape of single-core Run.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr := whisper.Hashmap{}.Generate(whisper.Params{Transactions: 20, TxSize: 1024, Seed: 1})
	cfg := testConfig(controller.DolosPartial)
	run := func() { NewSystem(cfg).Run(tr) }
	if n := testing.AllocsPerRun(5, run); n > runAllocsBound {
		t.Errorf("Run allocates %.0f times, bound %d", n, runAllocsBound)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > runBytesBound {
		t.Errorf("Run allocates %d bytes, bound %d", b, runBytesBound)
	}
}
