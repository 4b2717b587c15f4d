package telemetry

import (
	"sync"
	"testing"

	"dolos/internal/sim"
)

func TestRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wpq.retries")
	c.Inc()
	c.Add(4)
	if got := r.Counter("wpq.retries").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("wpq.retries"); c2 != c {
		t.Fatal("second lookup returned a different counter")
	}

	g := r.Gauge("wpq.occupancy")
	g.Set(7.5)
	if got := r.Gauge("wpq.occupancy").Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}

	h := r.CycleHist("drain.latency")
	h.Observe(100)
	h.Observe(300)
	hs := h.Stats()
	if hs.Count != 2 || hs.Mean != 200 || hs.Min != 100 || hs.Max != 300 {
		t.Fatalf("hist stats = %+v", hs)
	}

	if n := r.CounterNames(); len(n) != 1 || n[0] != "wpq.retries" {
		t.Fatalf("counter names = %v", n)
	}
	if n := r.GaugeNames(); len(n) != 1 || n[0] != "wpq.occupancy" {
		t.Fatalf("gauge names = %v", n)
	}
	if n := r.HistNames(); len(n) != 1 || n[0] != "drain.latency" {
		t.Fatalf("hist names = %v", n)
	}
	if c.Name() != "wpq.retries" || g.Name() != "wpq.occupancy" || h.Name() != "drain.latency" {
		t.Fatal("metric names lost")
	}
}

// TestRegistryRaceClean hammers the registry and a probe from many
// goroutines; `go test -race` (the CI configuration) verifies the
// subsystem's concurrency contract.
func TestRegistryRaceClean(t *testing.T) {
	r := NewRegistry()
	p := NewProbe(func() sim.Cycle { return 1 })
	tr := p.Track("shared")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared.counter").Inc()
				r.Gauge("shared.gauge").Set(float64(i))
				r.CycleHist("shared.hist").Observe(float64(i))
				if i%50 == 0 {
					r.CounterNames()
					r.HistNames()
				}
				p.Span(tr, "work", sim.Cycle(i), sim.Cycle(i+1))
				p.Counter(tr, "val", float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := r.CycleHist("shared.hist").Stats().Count; got != 8*500 {
		t.Fatalf("hist count = %d, want %d", got, 8*500)
	}
	if got := p.Len(); got != 2*8*500 {
		t.Fatalf("events = %d, want %d", got, 2*8*500)
	}
}
