package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dolos/internal/stats"
)

// Counter is a monotonically increasing metric. Unlike stats.Counter it
// is atomic (the registry contract is race-clean) and nil-safe, so
// instrumented code can cache a possibly-nil pointer and call it
// unconditionally.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the counter's registered name ("" on nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric (e.g. current WPQ occupancy).
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Name returns the gauge's registered name ("" on nil).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// CycleHist accumulates cycle-valued samples. It layers a mutex over a
// stats.Histogram so concurrent observers are race-clean, and is
// nil-safe like the other registry types.
type CycleHist struct {
	name string
	mu   sync.Mutex
	h    *stats.Histogram
}

// Name returns the histogram's registered name ("" on nil).
func (h *CycleHist) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one sample.
func (h *CycleHist) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Stats returns the accumulated histogram statistics.
func (h *CycleHist) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return histStats(h.h)
}

// Registry is a named metrics registry: counters, gauges and cycle
// histograms, created on first use. It is safe for concurrent use and,
// like the Probe, fully nil-safe: methods on a nil registry return nil
// metrics whose own methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*CycleHist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*CycleHist),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// CycleHist returns the named histogram, creating it if needed.
func (r *Registry) CycleHist(name string) *CycleHist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &CycleHist{name: name, h: stats.NewHistogram(name)}
		r.hists[name] = h
	}
	return h
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeysCounter(r.counters)
}

// GaugeNames returns the registered gauge names, sorted.
func (r *Registry) GaugeNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeysGauge(r.gauges)
}

// HistNames returns the registered histogram names, sorted.
func (r *Registry) HistNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeysHist(r.hists)
}

func sortedKeysCounter(m map[string]*Counter) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysGauge(m map[string]*Gauge) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysHist(m map[string]*CycleHist) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
