package cpu

import (
	"testing"

	"dolos/internal/controller"
	"dolos/internal/masu"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// benchTrace is generated once and replayed per scheme.
var benchTrace *trace.Trace

func getBenchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	if benchTrace == nil {
		benchTrace = whisper.Hashmap{}.Generate(whisper.Params{
			Transactions: 100, Warmup: 50, TxSize: 1024, Seed: 1, HeapSize: 32 << 20,
		})
	}
	return benchTrace
}

func benchScheme(b *testing.B, s controller.Scheme) {
	tr := getBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := NewSystem(testConfig(s))
		res := must(sys.Run(tr))
		b.ReportMetric(float64(res.Cycles), "sim-cycles")
	}
}

func BenchmarkRunIdeal(b *testing.B)        { benchScheme(b, controller.NonSecureADR) }
func BenchmarkRunBaseline(b *testing.B)     { benchScheme(b, controller.PreWPQSecure) }
func BenchmarkRunDolosFull(b *testing.B)    { benchScheme(b, controller.DolosFull) }
func BenchmarkRunDolosPartial(b *testing.B) { benchScheme(b, controller.DolosPartial) }
func BenchmarkRunDolosPost(b *testing.B)    { benchScheme(b, controller.DolosPost) }

// BenchmarkStartCell times a cell's whole cpu.start span, the machine
// build and Start: the hierarchies, the trace mirrors' sizing and fill
// and the checkpoint load. The traces are those of three cells of
// benchmark/, all under Dolos-Partial with functional crypto: a
// 3000-txn, 95%-read YCSB trace on the lazy ToC (ycsb-read-lazy), a
// 1000-txn Hashmap trace on the eager BMT (hashmap-eager), and four
// 250-txn Hashmap traces, one per core at window 2, on the eager BMT
// (contention-4core). `make bench-gen` runs it.
func BenchmarkStartCell(b *testing.B) {
	hashmap4 := make([]CoreSpec, 4)
	for i := range hashmap4 {
		hashmap4[i].Trace = whisper.Hashmap{}.Generate(whisper.Params{
			Transactions: 250, Seed: CoreSeed(1000, i), HeapBase: CoreHeapBase(i),
		})
	}
	cases := []struct {
		name  string
		cores []CoreSpec
		tree  masu.TreeKind
	}{
		{"ycsb-read-lazy", []CoreSpec{{Trace: whisper.YCSB{}.Generate(whisper.Params{Transactions: 3000, ReadPercent: 95, Seed: 1000})}}, masu.ToCLazy},
		{"hashmap-eager", []CoreSpec{{Trace: whisper.Hashmap{}.Generate(whisper.Params{Transactions: 1000, Seed: 1000})}}, masu.BMTEager},
		{"contention-4core", hashmap4, masu.BMTEager},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := controller.Config{Scheme: controller.DolosPartial, Tree: c.tree}
			copy(cfg.AESKey[:], "cpu-aes-key-0016")
			copy(cfg.MACKey[:], "cpu-mac-key-0016")
			lines := 0
			for _, s := range c.cores {
				lines += len(s.Trace.InitImage)
			}
			b.ReportAllocs()
			b.ReportMetric(float64(lines), "lines/op")
			for i := 0; i < b.N; i++ {
				if len(c.cores) == 1 {
					NewSystem(cfg).Start(c.cores[0].Trace)
				} else {
					NewMachine(MachineConfig{Ctrl: cfg, Window: 2}, c.cores).Start()
				}
			}
		})
	}
}

// BenchmarkLoopCell times the event loop alone, Engine.Run from Start to
// the end of the trace, on the 1000-txn Btree trace of a btree-fast
// cell of benchmark/ (latency-only crypto, eager BMT, default layout)
// under Pre-WPQ-Secure and each Dolos design. The machine build and
// Start, which loads the checkpoint image, run outside the timer, so
// the per-scheme ratio is the write path's host cost in the loop.
// `make bench-loop` runs it.
func BenchmarkLoopCell(b *testing.B) {
	tr := whisper.Btree{}.Generate(whisper.Params{Transactions: 1000, Seed: 1000})
	for _, sch := range []controller.Scheme{
		controller.PreWPQSecure, controller.DolosFull, controller.DolosPartial, controller.DolosPost,
	} {
		b.Run(sch.String(), func(b *testing.B) {
			cfg := controller.Config{Scheme: sch, Tree: masu.BMTEager, FastMode: true}
			copy(cfg.AESKey[:], "cpu-aes-key-0016")
			copy(cfg.MACKey[:], "cpu-mac-key-0016")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := NewSystem(cfg)
				if err := s.Start(tr); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				s.Eng.Run(0)
			}
		})
	}
}
