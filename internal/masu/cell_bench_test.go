package masu_test

import (
	"testing"

	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// BenchmarkProcessWriteCell times ProcessWrite at a benchmark cell's
// scale: a unit on layout.Default(), whose trees have 8 levels, holds a
// cell's checkpoint image and replays the flushes of the cell's trace,
// one write per iteration, from the first flush again once the stream
// ends. The traces are those of benchmark/'s cells: Hashmap and Btree
// at 1000 transactions on the eager BMT, and YCSB at 3000 transactions
// with 95% reads on the lazy ToC. Generating the trace and loading its
// image are untimed. `make bench-masu` runs it.
func BenchmarkProcessWriteCell(b *testing.B) {
	cases := []struct {
		name string
		tr   *trace.Trace
		tree masu.TreeKind
	}{
		{"hashmap-eager", whisper.Hashmap{}.Generate(whisper.Params{Transactions: 1000, Seed: 1000}), masu.BMTEager},
		{"btree-eager", whisper.Btree{}.Generate(whisper.Params{Transactions: 1000, Seed: 1000}), masu.BMTEager},
		{"ycsb-read-lazy", whisper.YCSB{}.Generate(whisper.Params{Transactions: 3000, ReadPercent: 95, Seed: 1000}), masu.ToCLazy},
	}
	var aesKey, macKey [16]byte
	copy(aesKey[:], "masu-aes-key-016")
	copy(macKey[:], "masu-mac-key-016")
	for _, c := range cases {
		var flushes []trace.Op
		for _, op := range c.tr.Ops {
			if op.Kind == trace.Flush {
				flushes = append(flushes, op)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			lay := layout.Default()
			u := masu.New(c.tree, crypt.NewEngine(aesKey, macKey), nvm.NewDevice(nil, lay.DeviceSize, 0), lay, 0)
			u.LoadImage(c.tr.InitImage)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := &flushes[i%len(flushes)]
				u.ProcessWrite(op.Addr, op.Data, -1)
			}
		})
	}
}
