// Package cpu is the timing front-end of the simulated machine: it
// replays a workload trace against the Table-1 cache hierarchy and a
// secure memory controller, enforcing the x86 persistency semantics the
// workloads were written with — stores complete into the caches, clwb
// pushes a line toward the memory controller asynchronously, and sfence
// stalls the core until every outstanding flush has been accepted into
// the persistence domain.
package cpu

import (
	"dolos/internal/cache"
	"dolos/internal/controller"
	"dolos/internal/nvm"
	"dolos/internal/sim"
	"dolos/internal/stats"
	"dolos/internal/telemetry"
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

// CoreResult summarizes one core of a multi-core run. It lives in this
// package (pure data, filled by internal/mcore) so Result stays the one
// result type every layer above the simulator shares.
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

// System wires a core, the cache hierarchy and a secure memory
// controller around one discrete-event engine.
type System struct {
	Eng  *sim.Engine
	Dev  *nvm.Device
	Ctrl *controller.Controller
	Hier *cache.Hierarchy

	// mirror tracks each line address's last application-written
	// plaintext; see TraceMirror. The trace's line-address range is
	// known when Start loads it, so the common case is a dense table
	// indexed by line offset — the mirror is updated on every write and
	// consulted on every eviction.
	mirror *TraceMirror

	// OnAccepted, when set, observes every persist acceptance (used by
	// the crash driver to know which writes the platform has promised).
	// Set it before Start.
	OnAccepted func(addr uint64, data [64]byte)

	issue       *Issuer
	window      int // the read window Start was asked for
	running     bool
	txLatencies *stats.Histogram
	txReservoir *stats.Reservoir

	// Telemetry (nil/zero when disabled; see SetProbe).
	probe *telemetry.Probe
	tCPU  telemetry.TrackID
}

// backend adapts the controller to the cache.Backend interface, sourcing
// eviction data from the line mirror.
type backend struct{ s *System }

func (b backend) ReadLine(addr uint64, done sim.Handler, arg uint64) {
	b.s.Ctrl.ReadLine(addr, done, arg)
}

func (b backend) EvictLine(addr uint64) {
	var data [64]byte
	if p := b.s.mirror.At(addr); p != nil {
		data = *p
	}
	b.s.Ctrl.EvictWrite(addr, data)
}

// NewSystem builds a full machine for the given controller configuration.
func NewSystem(cfg controller.Config) *System {
	eng := sim.NewEngine()
	s := &System{
		Eng:         eng,
		mirror:      NewTraceMirror(),
		txLatencies: stats.NewHistogram("tx_latency"),
		txReservoir: stats.NewReservoir("tx_latency", 0),
	}
	s.Dev = nvm.NewDevice(eng, cfg.DeviceSize(), 0)
	s.Ctrl = controller.New(eng, s.Dev, cfg)
	s.Hier = cache.NewHierarchy(eng, backend{s})
	s.issue = NewIssuer(eng, s.Hier, s.mirror, s, s.txLatencies, s.txReservoir)
	return s
}

// SetProbe attaches (or with nil detaches) a telemetry probe to the
// whole machine: the CPU front-end (fence stalls, transaction spans),
// the event-dispatch counter on the engine, and — via the controller —
// the WPQ, security units and NVM banks. Call before Start/Run. Hooks
// are purely observational: timing is bit-identical with and without a
// probe.
func (s *System) SetProbe(p *telemetry.Probe) {
	s.probe = p
	s.issue.probe = p
	if p == nil {
		s.Ctrl.SetProbe(nil)
		s.Eng.SetHook(nil)
		return
	}
	s.tCPU = p.Track("cpu") // register first so the CPU is the top track
	s.issue.track = s.tCPU
	s.Ctrl.SetProbe(p)
	events := p.Registry().Counter("sim.events_dispatched")
	s.Eng.SetHook(func(_ sim.Cycle) { events.Inc() })
}

// Probe returns the attached telemetry probe (nil when disabled).
func (s *System) Probe() *telemetry.Probe { return s.probe }

// Run executes the trace to completion on the in-order core and returns
// the result. The engine is drained afterwards so the controller
// quiesces.
func (s *System) Run(tr *trace.Trace) Result { return s.RunWindow(tr, 0) }

// RunWindow is Run with the given out-of-order read window (see
// Issuer; 0 and 1 both issue in order, and the result reports the
// window asked for).
func (s *System) RunWindow(tr *trace.Trace, window int) Result {
	s.start(tr, window)
	s.Eng.Run(0)
	if !s.issue.Finished() {
		panic("cpu: trace execution deadlocked (fence never satisfied)")
	}
	return s.Collect(tr)
}

// Mirror returns the current plaintext value of addr's line as the
// application last wrote it.
func (s *System) Mirror(addr uint64) ([64]byte, bool) {
	if p := s.mirror.At(addr); p != nil {
		return *p, true
	}
	return [64]byte{}, false
}

// Finished reports whether the trace has fully executed.
func (s *System) Finished() bool { return s.issue.Finished() }

// Start schedules trace execution on the in-order core without running
// it; the caller drives the clock (RunUntil for crash injection). The
// trace's checkpoint image (the fast-forwarded warm-up state) is loaded
// into the secure memory functionally first, with no cycles charged.
func (s *System) Start(tr *trace.Trace) { s.start(tr, 0) }

func (s *System) start(tr *trace.Trace, window int) {
	if s.running {
		panic("cpu: system already running a trace")
	}
	s.running = true
	s.window = window

	s.mirror.SizeFor(tr)
	s.Ctrl.LoadImage(tr.InitImage)
	for i := range tr.InitImage {
		il := &tr.InitImage[i]
		s.mirror.Set(il.Addr, &il.Data)
	}
	s.issue.Start(tr, window)
}

// Persist implements Port: the flushed line goes straight to the
// controller. Without an OnAccepted hook the acceptance callback is the
// issue loop's own, so a flush allocates nothing here.
func (s *System) Persist(op *trace.Op, accepted func()) {
	if s.OnAccepted == nil {
		s.Ctrl.PersistWrite(op.Addr, op.Data, accepted)
		return
	}
	s.Ctrl.PersistWrite(op.Addr, op.Data, func() {
		s.OnAccepted(op.Addr, op.Data)
		accepted()
	})
}

// Collect gathers the result after a Run (or a partial run).
func (s *System) Collect(tr *trace.Trace) Result {
	st := s.Ctrl.Stats()
	l := s.issue
	res := Result{
		Scheme:        s.Ctrl.Config().Scheme.String(),
		Workload:      tr.Name,
		Cycles:        l.EndCycle(),
		Transactions:  l.Transactions(),
		Ops:           l.Ops(),
		FenceStalls:   l.FenceStalls(),
		WriteRequests: s.Ctrl.WriteRequests(),
		RetryEvents:   s.Ctrl.RetryEvents(),
		RetryPerKWR:   s.Ctrl.RetryPerKWR(),
		WPQReadHits:   st.Counter("wpq.read_hits").Value(),
		MemReads:      st.Counter("mem.reads").Value(),
		OoOWindow:     s.window,
		Prefetches:    l.Prefetches(),
	}
	res.RecoveryCycles = s.Ctrl.RecoveryEstimate()
	if res.Transactions > 0 {
		res.CyclesPerTx = float64(res.Cycles) / float64(res.Transactions)
	}
	if res.Ops > 0 {
		res.CPI = float64(res.Cycles) / float64(res.Ops)
	}
	res.MeanInterarrival = st.Histogram("wpq.interarrival_cycles").Mean()
	res.WPQMeanOccupancy = st.Histogram("wpq.occupancy_at_arrival").Mean()
	if s.txReservoir.Count() > 0 {
		res.MedianTxCycles = s.txReservoir.Median()
		res.P99TxCycles = s.txReservoir.P99()
	}
	return res
}

// TxLatency returns the per-transaction latency histogram.
func (s *System) TxLatency() *stats.Histogram { return s.txLatencies }
