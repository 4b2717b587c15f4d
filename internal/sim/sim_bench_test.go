package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	var next func()
	n := 0
	next = func() {
		n++
		if n < b.N {
			e.After(1, next)
		}
	}
	e.At(0, next)
	b.ResetTimer()
	e.Run(0)
}

// benchBatch is how many events or jobs the batched benchmarks below
// schedule before they dispatch them, so what they hold pending does not
// grow with b.N and each operation is timed from scheduling to dispatch.
const benchBatch = 1000

// BenchmarkEngineFanOut schedules batches of events at scattered cycles
// within the next 1000 and runs each batch to completion.
func BenchmarkEngineFanOut(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i += benchBatch {
		now := e.Now()
		for k := 0; k < benchBatch && i+k < b.N; k++ {
			e.At(now+1+Cycle(k*389%benchBatch), fn)
		}
		e.Run(0)
	}
}

func BenchmarkServerSubmit(b *testing.B) {
	e := NewEngine()
	s := NewServer(e, "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i += benchBatch {
		for k := 0; k < benchBatch && i+k < b.N; k++ {
			s.Submit(1, nil, 0)
		}
		e.Run(0)
	}
}

func BenchmarkPipeServerSubmit(b *testing.B) {
	e := NewEngine()
	p := NewPipeServer(e, "b", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i += benchBatch {
		for k := 0; k < benchBatch && i+k < b.N; k++ {
			p.Submit(10, nil, 0)
		}
		e.Run(0)
	}
}

// measuredDelays is the delay mix of the events a benchmark cell
// queues (btree-fast's and hashmap-eager's Dolos-Partial cells, counted
// by bit length): a fifth are 2–3-cycle issue yields, and the rest wait
// 16–63 cycles (3 in 20), 128–511 (6 in 20) or 1024–4095 (7 in 20), the
// cache, MAC-stage and NVM latencies.
var measuredDelays = func() []Cycle {
	rng := rand.New(rand.NewSource(1))
	d := make([]Cycle, 4096)
	for i := range d {
		lo, hi := 1024, 4096
		switch r := rng.Intn(20); {
		case r < 4:
			lo, hi = 2, 4
		case r < 7:
			lo, hi = 16, 64
		case r < 13:
			lo, hi = 128, 512
		}
		d[i] = Cycle(lo + rng.Intn(hi-lo))
	}
	return d
}()

func measuredDelay(i int) Cycle { return measuredDelays[i%len(measuredDelays)] }

// BenchmarkEngineQueue holds a fixed number of events pending (the
// depth) and reports ns and allocations per event dispatched, its
// scheduling included: each event schedules one more with the next
// delay of a mix. The measured mix is measuredDelays; the FIFO mix gives
// every event the same delay, so each insert lands at the tail, as in
// eADR's deep queues. Depths 16 and 64 span the benchmark cells, 512 is
// -exp schemes' deepest cell and 4096 an 8-core eADR run.
func BenchmarkEngineQueue(b *testing.B) {
	for _, mix := range []struct {
		name  string
		delay func(i int) Cycle
	}{
		{"measured", measuredDelay},
		{"fifo", func(int) Cycle { return 4096 }},
	} {
		for _, depth := range []int{16, 64, 512, 4096} {
			b.Run(fmt.Sprintf("%s/depth=%d", mix.name, depth), func(b *testing.B) {
				e := NewEngine()
				i := 0
				var fire func()
				fire = func() {
					i++
					e.After(mix.delay(i), fire)
				}
				for k := 0; k < depth; k++ {
					e.After(mix.delay(k), fire)
				}
				e.Run(uint64(4 * depth)) // settle into the steady state
				b.ReportAllocs()
				b.ResetTimer()
				e.Run(uint64(b.N))
			})
		}
	}
}
