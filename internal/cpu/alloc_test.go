package cpu

import (
	"runtime"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// Allocation bounds of one single-core Run of the Hashmap trace below,
// measured with Go 1.24 on linux/amd64 once the LLC's sets kept only
// four ways inline, the shadow table kept its images apart and
// tree-node references were computed (353 allocations and 3,428,604
// bytes before; 4,595,782 bytes before the dense tables grew their
// chunk directories on demand and cache lines shrank to 16 bytes): 351
// allocations and at most 1,300,110 bytes, nearly all of them building
// the system and loading the checkpoint image. The byte bound adds
// 0.25% for runtime jitter. The trace flushes 529 lines, so a persist
// path that copies each 64-byte line into a per-flush closure adds over
// 35 KB and fails it, and one closure per request fails the allocation
// bound.
const (
	runAllocsBound = 351
	runBytesBound  = 1_303_400
)

// TestRunAllocs pins the allocation shape of single-core Run.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr := whisper.Hashmap{}.Generate(whisper.Params{Transactions: 20, TxSize: 1024, Seed: 1})
	cfg := testConfig(controller.DolosPartial)
	run := func() { must(NewSystem(cfg).Run(tr)) }
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

// steadyState runs op until the rings, slabs and tables it grows have
// reached their working size, then reports op's allocations per run.
func steadyState(op func()) float64 {
	for i := 0; i < 256; i++ {
		op()
	}
	return testing.AllocsPerRun(200, op)
}

// TestPersistWriteAllocFree pins that a steady-state persisted write
// allocates nothing on every insert path: Pre-WPQ (with the schemes
// that share it), the Dolos split with each Mi-SU design (Post-WPQ's
// deferred MAC included), eADR and the ideal reference. Each write runs
// to the end of its NVM drain.
func TestPersistWriteAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, sch := range []controller.Scheme{
		controller.PreWPQSecure, controller.TriadNVM, controller.DolosFull, controller.DolosPartial,
		controller.DolosPost, controller.EADRSecure, controller.NonSecureADR,
	} {
		s := NewSystem(testConfig(sch))
		accepted := 0
		acceptFn := func() { accepted++ }
		var data [64]byte
		i := 0
		write := func() {
			data[0] = byte(i)
			s.Ctrl.PersistWrite(0x10000+uint64(i%32)*64, &data, acceptFn)
			s.Eng.Run(0)
			i++
		}
		if n := steadyState(write); n != 0 {
			t.Errorf("%v: a persisted write allocates %.1f times", sch, n)
		}
		if accepted != i {
			t.Errorf("%v: %d of %d writes accepted", sch, accepted, i)
		}
	}
}

// TestArbitratedPersistAllocFree pins that on a 4-core machine a
// steady-state round of persists and evictions, one of each per core,
// allocates nothing on its way through Core.Persist and the core's
// eviction backend, the arbiter's command port and the controller, on
// every insert path. The persisted lines are trace ops and the evicted
// ones mirror entries or, for a line the mirror does not hold, the
// shared zero line, all by reference.
func TestArbitratedPersistAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const cores = 4
	for _, sch := range []controller.Scheme{
		controller.PreWPQSecure, controller.TriadNVM, controller.DolosFull, controller.DolosPartial,
		controller.DolosPost, controller.EADRSecure, controller.NonSecureADR,
	} {
		specs := make([]CoreSpec, cores)
		for i := range specs {
			specs[i].Trace = &trace.Trace{}
		}
		m := NewMachine(MachineConfig{Ctrl: testConfig(sch)}, specs)
		var ops [cores][32]trace.Op
		for c := range ops {
			for j := range ops[c] {
				op := &ops[c][j]
				*op = trace.Op{Kind: trace.Flush, Addr: 0x10000 + uint64(c*4096+j*64)}
				op.Data[0] = byte(c*32 + j)
				if j%2 == 0 {
					m.Cores[c].mirror.Set(op.Addr, &op.Data)
				}
			}
		}
		accepted := 0
		acceptFn := func() { accepted++ }
		i := 0
		round := func() {
			for c, core := range m.Cores {
				core.Persist(&ops[c][i%32], acceptFn)
				coreBackend{core}.EvictLine(ops[c][(i+16)%32].Addr)
			}
			m.Eng.Run(0)
			i++
		}
		if n := steadyState(round); n != 0 {
			t.Errorf("%v: a round of %d persists and evictions allocates %.1f times", sch, cores, n)
		}
		if accepted != cores*i {
			t.Errorf("%v: %d of %d persists accepted", sch, accepted, cores*i)
		}
	}
}

// TestMissReadAllocFree pins that a read missing every cache level
// allocates nothing on its way through the Hierarchy, the controller's
// verified read and the NVM bank, and back.
func TestMissReadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, sch := range []controller.Scheme{controller.PreWPQSecure, controller.DolosPartial} {
		s := NewSystem(testConfig(sch))
		var data [64]byte
		for a := uint64(0); a < 32; a++ {
			s.Ctrl.PersistWrite(0x10000+a*64, &data, nil)
		}
		s.Eng.Run(0)
		done := 0
		doneFn := func() { done++ }
		i := 0
		read := func() {
			s.Hier.InvalidateAll()
			s.Hier.Read(0x10000+uint64(i%32)*64, doneFn)
			s.Eng.Run(0)
			i++
		}
		before := s.Hier.MemReads()
		if n := steadyState(read); n != 0 {
			t.Errorf("%v: a miss read allocates %.1f times", sch, n)
		}
		if done != i || s.Hier.MemReads()-before != uint64(i) {
			t.Errorf("%v: %d reads done, %d reached memory, of %d", sch, done, s.Hier.MemReads()-before, i)
		}
	}
}
