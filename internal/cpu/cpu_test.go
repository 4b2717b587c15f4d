package cpu

import (
	"testing"

	"dolos/internal/controller"
	"dolos/internal/layout"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// must returns a run's result, panicking on its error.
func must(res Result, err error) Result {
	if err != nil {
		panic(err)
	}
	return res
}

func testConfig(s controller.Scheme) controller.Config {
	cfg := controller.Config{Scheme: s, Layout: layout.Small()}
	copy(cfg.AESKey[:], "cpu-aes-key-0016")
	copy(cfg.MACKey[:], "cpu-mac-key-0016")
	return cfg
}

// syntheticTrace builds a minimal durable-transaction trace by hand.
func syntheticTrace() *trace.Trace {
	rec := trace.NewRecorder("synthetic", 64)
	var data [64]byte
	data[0] = 0xAB
	for i := 0; i < 5; i++ {
		addr := uint64(4096 + i*64)
		rec.TxBegin()
		rec.Compute(200)
		rec.Write(addr, data)
		rec.Flush(addr, data)
		rec.Fence()
		rec.TxEnd()
	}
	return rec.Finish()
}

func TestSyntheticTraceRuns(t *testing.T) {
	s := NewSystem(testConfig(controller.DolosPartial))
	res := must(s.Run(syntheticTrace()))
	if res.Transactions != 5 {
		t.Fatalf("transactions = %d", res.Transactions)
	}
	if res.Cycles == 0 || res.CPI == 0 || res.CyclesPerTx == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.WriteRequests != 5 {
		t.Fatalf("write requests = %d", res.WriteRequests)
	}
}

func TestFenceBlocksUntilAccepted(t *testing.T) {
	// With the baseline scheme a fence must wait for the full security
	// latency; the ideal scheme's fence is nearly free.
	base := must(NewSystem(testConfig(controller.PreWPQSecure)).Run(syntheticTrace()))
	ideal := must(NewSystem(testConfig(controller.NonSecureADR)).Run(syntheticTrace()))
	if base.FenceStalls <= ideal.FenceStalls {
		t.Fatalf("fence stalls: baseline %d <= ideal %d", base.FenceStalls, ideal.FenceStalls)
	}
	if base.Cycles <= ideal.Cycles {
		t.Fatalf("baseline ran faster than ideal: %d vs %d", base.Cycles, ideal.Cycles)
	}
}

func TestSchemeOrderingOnRealWorkload(t *testing.T) {
	// The paper's headline ordering on a real workload trace:
	// ideal <= Dolos variants < baseline.
	tr := whisper.Hashmap{}.Generate(whisper.Params{
		Transactions: 40, Warmup: 30, TxSize: 512, Seed: 3, HeapSize: 16 << 20,
	})
	cycles := map[controller.Scheme]float64{}
	for _, sch := range []controller.Scheme{
		controller.NonSecureADR, controller.PreWPQSecure,
		controller.DolosFull, controller.DolosPartial, controller.DolosPost,
	} {
		res := must(NewSystem(testConfig(sch)).Run(tr))
		cycles[sch] = float64(res.Cycles)
	}
	if !(cycles[controller.NonSecureADR] < cycles[controller.PreWPQSecure]) {
		t.Fatalf("ideal not faster than baseline: %v", cycles)
	}
	for _, d := range []controller.Scheme{controller.DolosFull, controller.DolosPartial, controller.DolosPost} {
		if !(cycles[d] < cycles[controller.PreWPQSecure]) {
			t.Fatalf("%v (%f) not faster than baseline (%f)", d, cycles[d], cycles[controller.PreWPQSecure])
		}
		if !(cycles[d] >= cycles[controller.NonSecureADR]) {
			t.Fatalf("%v beat the ideal bound", d)
		}
	}
}

func TestReadsGoThroughHierarchy(t *testing.T) {
	rec := trace.NewRecorder("reads", 0)
	var data [64]byte
	addr := uint64(4096)
	rec.Write(addr, data)
	rec.Flush(addr, data)
	rec.Fence()
	for i := 0; i < 10; i++ {
		rec.Read(addr) // hot line: hits L1 after first access
	}
	s := NewSystem(testConfig(controller.DolosPartial))
	res := must(s.Run(rec.Finish()))
	if res.MemReads > 1 {
		t.Fatalf("hot-line reads reached memory %d times", res.MemReads)
	}
}

func TestCleanFlushSkipsController(t *testing.T) {
	rec := trace.NewRecorder("cleanflush", 0)
	var data [64]byte
	addr := uint64(4096)
	rec.Write(addr, data)
	rec.Flush(addr, data)
	rec.Fence()
	rec.Flush(addr, data) // second flush: line already clean
	rec.Fence()
	s := NewSystem(testConfig(controller.DolosPartial))
	res := must(s.Run(rec.Finish()))
	if res.WriteRequests != 1 {
		t.Fatalf("write requests = %d, want 1 (clean flush is a no-op)", res.WriteRequests)
	}
}

func TestInterarrivalReported(t *testing.T) {
	tr := whisper.Ctree{}.Generate(whisper.Params{
		Transactions: 30, Warmup: 20, TxSize: 512, Seed: 3, HeapSize: 16 << 20,
	})
	res := must(NewSystem(testConfig(controller.DolosPartial)).Run(tr))
	if res.MeanInterarrival <= 0 {
		t.Fatal("no inter-arrival statistic")
	}
}
