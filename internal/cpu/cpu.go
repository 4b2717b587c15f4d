// Package cpu is the timing front-end of the simulated machine: it
// replays a workload trace against the Table-1 cache hierarchy and a
// secure memory controller, enforcing the x86 persistency semantics the
// workloads were written with — stores complete into the caches, clwb
// pushes a line toward the memory controller asynchronously, and sfence
// stalls the core until every outstanding flush has been accepted into
// the persistence domain. One Machine runs any number of cores against
// one controller; System is its one-core view.
package cpu

import (
	"dolos/internal/cache"
	"dolos/internal/controller"
	"dolos/internal/sim"
	"dolos/internal/trace"
)

// Result summarizes one trace execution.
type Result struct {
	// Scheme and Workload identify the run.
	Scheme   string
	Workload string
	// Cycles is the cycle at which the last trace operation completed.
	Cycles sim.Cycle
	// Transactions is the number of durable transactions executed.
	Transactions int
	// Ops is the number of trace operations executed.
	Ops int
	// CyclesPerTx is the mean transaction latency.
	CyclesPerTx float64
	// CPI is cycles per trace operation (the Figure 6 CPI proxy).
	CPI float64
	// FenceStalls is the total cycles the core spent blocked in sfence.
	FenceStalls sim.Cycle
	// WriteRequests and RetryEvents feed Table 2.
	WriteRequests, RetryEvents uint64
	// RetryPerKWR is retry events per kilo write requests.
	RetryPerKWR float64
	// MeanInterarrival is the mean WPQ request inter-arrival in cycles.
	MeanInterarrival float64
	// MedianTxCycles and P99TxCycles are transaction-latency quantiles —
	// the tail is where persist stalls surface.
	MedianTxCycles, P99TxCycles float64
	// WPQMeanOccupancy is the mean number of live WPQ entries observed
	// at write arrivals.
	WPQMeanOccupancy float64
	// WPQReadHits counts reads served from the WPQ.
	WPQReadHits uint64
	// MemReads counts reads that reached the memory controller.
	MemReads uint64
	// Cores is the number of contending cores (0 for the single-core
	// model, whose output predates the field and must stay byte-stable).
	Cores int
	// OoOWindow is the read window the run was asked for (0 for the
	// default in-order core; see Issuer).
	OoOWindow int
	// Prefetches counts stride-prefetch reads (always 0 at windows 0
	// and 1).
	Prefetches uint64
	// RecoveryCycles is the modeled boot-time recovery cost for schemes
	// that report the recovery axis (Triad-NVM, SuperMem, Phoenix,
	// STUM); 0 for legacy schemes, keeping their records byte-stable.
	RecoveryCycles uint64
	// PerCore carries per-core summaries for multi-core runs (nil
	// otherwise).
	PerCore []CoreResult
}

// CoreResult summarizes one core of a multi-core run (see
// Machine.Collect).
type CoreResult struct {
	// Core is the core index; Workload and Seed identify its instance.
	Core     int
	Workload string
	Seed     int64
	// Cycles is when this core's trace finished.
	Cycles sim.Cycle
	// Transactions and Ops count this core's executed work.
	Transactions int
	Ops          int
	// FenceStalls is cycles this core spent blocked in sfence — under
	// contention, mostly waiting behind a full shared WPQ.
	FenceStalls sim.Cycle
	// AcceptedPersists counts this core's persists accepted into the
	// persistence domain.
	AcceptedPersists uint64
	// ArbGrants and ArbWaitCycles are the memory-controller arbiter's
	// fairness accounting: requests granted to this core and total
	// cycles its requests waited for the command port.
	ArbGrants     uint64
	ArbWaitCycles uint64
}

// System is the one-core view of the Machine: a core, the cache
// hierarchy and a secure memory controller around one discrete-event
// engine, with the trace given at Start or Run instead of at
// construction. Its port to the controller is the controller itself.
type System struct {
	Machine
	Core

	// Hier is the core's cache hierarchy.
	Hier *cache.Hierarchy

	cores [1]*Core // backs Machine.Cores
}

// NewSystem builds a full one-core machine for the given controller
// configuration.
func NewSystem(cfg controller.Config) *System {
	s := &System{}
	s.cores[0] = &s.Core
	s.Cores = s.cores[:]
	s.build(MachineConfig{Ctrl: cfg})
	s.Hier = s.hier
	return s
}

// Run executes the trace to completion on the in-order core and returns
// the result. The engine is drained afterwards so the controller
// quiesces. A trace Start refuses is returned as its error, unrun.
func (s *System) Run(tr *trace.Trace) (Result, error) { return s.RunWindow(tr, 0) }

// RunWindow is Run with the given out-of-order read window (see
// Issuer; 0 and 1 both issue in order, and the result reports the
// window asked for).
func (s *System) RunWindow(tr *trace.Trace, window int) (Result, error) {
	if err := s.start(tr, window); err != nil {
		return Result{}, err
	}
	s.runToEnd()
	return s.Collect(tr), nil
}

// Start schedules trace execution on the in-order core without running
// it; the caller drives the clock (RunUntil for crash injection). The
// trace's checkpoint image (the fast-forwarded warm-up state) is loaded
// into the secure memory functionally first, with no cycles charged.
// A trace that addresses a line outside the controller's data region
// is returned as CheckTraces's error, and nothing is loaded.
func (s *System) Start(tr *trace.Trace) error { return s.start(tr, 0) }

func (s *System) start(tr *trace.Trace, window int) error {
	if s.started {
		panic("cpu: system already running a trace")
	}
	s.spec = CoreSpec{Workload: tr.Name, Trace: tr}
	s.cfg.Window = window
	return s.Machine.start()
}

// Collect gathers the result after a Run (or a partial run) of tr.
func (s *System) Collect(tr *trace.Trace) Result {
	res := s.Machine.Collect()
	res.Workload = tr.Name
	return res
}
