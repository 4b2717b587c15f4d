package masu_test

import (
	"testing"

	"dolos/internal/controller"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/sim"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// BenchmarkLoadCheckpoint times LoadImage, the work of a cell's
// cpu.start, on the checkpoint images of two cells of benchmark/: a
// 3000-txn, 95%-read YCSB trace on the lazy ToC (ycsb-read-lazy) and a
// 1000-txn Hashmap trace on the eager BMT (hashmap-eager). Building the
// controller is untimed. `make bench-masu` runs it.
func BenchmarkLoadCheckpoint(b *testing.B) {
	cases := []struct {
		name string
		tr   *trace.Trace
		tree masu.TreeKind
	}{
		{"ycsb-read-lazy", whisper.YCSB{}.Generate(whisper.Params{Transactions: 3000, ReadPercent: 95, Seed: 1000}), masu.ToCLazy},
		{"hashmap-eager", whisper.Hashmap{}.Generate(whisper.Params{Transactions: 1000, Seed: 1000}), masu.BMTEager},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := controller.Config{Scheme: controller.DolosPartial, Tree: c.tree}
			b.ReportAllocs()
			b.ReportMetric(float64(len(c.tr.InitImage)), "lines/op")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := sim.NewEngine()
				ctrl := controller.New(eng, nvm.NewDevice(eng, cfg.DeviceSize(), 0), cfg)
				b.StartTimer()
				ctrl.LoadImage(c.tr.InitImage)
			}
		})
	}
}
