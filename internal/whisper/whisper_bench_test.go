package whisper

import "testing"

func benchGenerate(b *testing.B, w Workload) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := w.Generate(Params{Transactions: 100, Warmup: 50, TxSize: 1024, Seed: int64(i) + 1})
		if tr.Transactions < 100 {
			b.Fatal("short trace")
		}
	}
}

func BenchmarkGenerateHashmap(b *testing.B) { benchGenerate(b, Hashmap{}) }
func BenchmarkGenerateCtree(b *testing.B)   { benchGenerate(b, Ctree{}) }
func BenchmarkGenerateBtree(b *testing.B)   { benchGenerate(b, Btree{}) }
func BenchmarkGenerateRBtree(b *testing.B)  { benchGenerate(b, RBtree{}) }
func BenchmarkGenerateYCSB(b *testing.B)    { benchGenerate(b, YCSB{}) }
func BenchmarkGenerateRedis(b *testing.B)   { benchGenerate(b, Redis{}) }

// BenchmarkGenerateCell generates one trace at the size a cell of the
// repository benchmark (benchmark/workloads.go) generates, at that
// benchmark's trace seeds. `make bench-gen` runs it.
func BenchmarkGenerateCell(b *testing.B) {
	cases := []struct {
		name string
		w    Workload
		p    Params
	}{
		{"Hashmap", Hashmap{}, Params{Transactions: 1000}},
		{"Btree", Btree{}, Params{Transactions: 1000}},
		{"YCSB-95", YCSB{}, Params{Transactions: 3000, ReadPercent: 95}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := c.p
				p.Seed = 1000 + int64(i%8)
				if tr := c.w.Generate(p); tr.Transactions < p.Transactions {
					b.Fatal("short trace")
				}
			}
		})
	}
}
