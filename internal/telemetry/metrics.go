package telemetry

import (
	"encoding/json"
	"io"

	"dolos/internal/stats"
)

// HistogramStats is the JSON shape of one histogram's summary.
type HistogramStats struct {
	Count  uint64  `json:"count"`
	Sum    float64 `json:"sum"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func histStats(h *stats.Histogram) HistogramStats {
	return HistogramStats{
		Count:  h.Count(),
		Sum:    h.Sum(),
		Mean:   h.Mean(),
		StdDev: h.StdDev(),
		Min:    h.Min(),
		Max:    h.Max(),
	}
}

// MetricsSnapshot is the machine-readable dump of a run's metrics: the
// shared encoding used by dolos-sim -json, the service's results and the
// benchmark's reference records, so numbers can be diffed across runs.
type MetricsSnapshot struct {
	Counters   map[string]uint64         `json:"counters"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// NewMetricsSnapshot returns an empty snapshot with maps allocated.
func NewMetricsSnapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramStats),
	}
}

// AddStats folds a stats.Set (the simulator's per-run registry) into the
// snapshot, preserving every counter and histogram name and value.
func (m MetricsSnapshot) AddStats(set *stats.Set) {
	if set == nil {
		return
	}
	for _, n := range set.CounterNames() {
		m.Counters[n] = set.Counter(n).Value()
	}
	for _, n := range set.HistogramNames() {
		m.Histograms[n] = histStats(set.Histogram(n))
	}
}

// AddRegistry folds a telemetry Registry into the snapshot.
func (m MetricsSnapshot) AddRegistry(r *Registry) {
	if r == nil {
		return
	}
	for _, n := range r.CounterNames() {
		m.Counters[n] = r.Counter(n).Value()
	}
	for _, n := range r.GaugeNames() {
		m.Gauges[n] = r.Gauge(n).Value()
	}
	for _, n := range r.HistNames() {
		m.Histograms[n] = r.CycleHist(n).Stats()
	}
}

// Snapshot captures a stats.Set and a Registry (either may be nil) in
// one MetricsSnapshot.
func Snapshot(set *stats.Set, reg *Registry) MetricsSnapshot {
	m := NewMetricsSnapshot()
	m.AddStats(set)
	m.AddRegistry(reg)
	return m
}

// RunRecord identifies one scheme×workload simulation and carries its
// headline results plus the full metrics snapshot. The field set mirrors
// cpu.Result; it is declared here (with plain fields) so the encoder is
// shared between dolos-sim -json, the service and the benchmark's
// reference records without this package importing the simulator.
type RunRecord struct {
	Scheme           string  `json:"scheme"`
	Workload         string  `json:"workload"`
	Tree             string  `json:"tree,omitempty"`
	Transactions     int     `json:"transactions"`
	TxSize           int     `json:"tx_size,omitempty"`
	Seed             int64   `json:"seed,omitempty"`
	Ops              int     `json:"ops,omitempty"`
	Cycles           uint64  `json:"cycles"`
	CyclesPerTx      float64 `json:"cycles_per_tx"`
	CPI              float64 `json:"cpi"`
	FenceStallCycles uint64  `json:"fence_stall_cycles"`
	WriteRequests    uint64  `json:"write_requests"`
	RetryEvents      uint64  `json:"retry_events"`
	RetryPerKWR      float64 `json:"retry_per_kwr"`
	WPQReadHits      uint64  `json:"wpq_read_hits"`
	MemReads         uint64  `json:"mem_reads"`
	MeanInterarrival float64 `json:"mean_interarrival_cycles"`
	WPQMeanOccupancy float64 `json:"wpq_mean_occupancy"`
	MedianTxCycles   float64 `json:"median_tx_cycles"`
	P99TxCycles      float64 `json:"p99_tx_cycles"`
	// RecoveryCycles is the modeled boot-time recovery cost — the
	// related-work schemes' measured axis. omitempty: legacy schemes
	// report 0, so their records (pinned by TestGoldenRecords) stay
	// byte-identical.
	RecoveryCycles uint64 `json:"recovery_cycles,omitempty"`

	// Multi-core / out-of-order axes (cpu.Machine). All omitempty:
	// single-core in-order records — including those TestGoldenRecords
	// pins — are byte-identical with or without this block.
	Cores      int          `json:"cores,omitempty"`
	OoOWindow  int          `json:"ooo_window,omitempty"`
	Prefetches uint64       `json:"prefetches,omitempty"`
	PerCore    []CoreRecord `json:"per_core,omitempty"`

	// Host-side throughput of the simulator itself (not part of the
	// simulated model, so these never participate in bit-identity
	// comparisons): wall-clock duration of the run and discrete events
	// dispatched by the engine, from which events/second derives.
	WallSeconds     float64 `json:"wall_seconds,omitempty"`
	EventsProcessed uint64  `json:"events_processed,omitempty"`
	EventsPerSecond float64 `json:"sim_events_per_sec,omitempty"`

	Metrics MetricsSnapshot `json:"metrics"`
}

// CoreRecord is one core's share of a multi-core RunRecord: its own
// cycle count and progress counters plus the shared-controller fairness
// view (arbiter grants and cumulative wait cycles).
type CoreRecord struct {
	Core             int    `json:"core"`
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed,omitempty"`
	Cycles           uint64 `json:"cycles"`
	Transactions     int    `json:"transactions"`
	Ops              int    `json:"ops,omitempty"`
	FenceStallCycles uint64 `json:"fence_stall_cycles"`
	AcceptedPersists uint64 `json:"accepted_persists"`
	ArbGrants        uint64 `json:"arb_grants"`
	ArbWaitCycles    uint64 `json:"arb_wait_cycles"`
}

// WriteJSON encodes v as indented JSON with a trailing newline — the one
// encoder every machine-readable output of the tools goes through, so
// diffs across PRs stay stable.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
