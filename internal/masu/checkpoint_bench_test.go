package masu_test

import (
	"testing"

	"dolos/internal/controller"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/sim"
	"dolos/internal/whisper"
)

// BenchmarkLoadCheckpoint loads the checkpoint image of a 3000-txn,
// 95%-read YCSB trace (the ycsb-read-lazy cell of benchmark/) into a
// fresh controller on the lazy ToC: one Ma-SU write per image line,
// the work of a cell's cpu.start. Building the controller is untimed.
// `make bench-masu` runs it.
func BenchmarkLoadCheckpoint(b *testing.B) {
	tr := whisper.YCSB{}.Generate(whisper.Params{Transactions: 3000, ReadPercent: 95, Seed: 1000})
	cfg := controller.Config{Scheme: controller.DolosPartial, Tree: masu.ToCLazy}
	b.ReportAllocs()
	b.ReportMetric(float64(len(tr.InitImage)), "lines/op")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine()
		ctrl := controller.New(eng, nvm.NewDevice(eng, cfg.DeviceSize(), 0), cfg)
		b.StartTimer()
		for j := range tr.InitImage {
			il := &tr.InitImage[j]
			ctrl.LoadInitLine(il.Addr, il.Data)
		}
	}
}
