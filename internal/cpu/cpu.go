// Package cpu is the timing front-end of the simulated machine: it
// replays a workload trace against the Table-1 cache hierarchy and a
// secure memory controller, enforcing the x86 persistency semantics the
// workloads were written with — stores complete into the caches, clwb
// pushes a line toward the memory controller asynchronously, and sfence
// stalls the core until every outstanding flush has been accepted into
// the persistence domain.
package cpu

import (
	"fmt"

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
	// OoOWindow is the out-of-order front-end issue window (0 for the
	// default in-order front-end).
	OoOWindow int
	// Prefetches counts stride-prefetch reads issued by the OoO
	// front-end (always 0 for the in-order model and window 1).
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
	OnAccepted func(addr uint64, data [64]byte)

	running      bool
	finished     bool
	endCycle     sim.Cycle
	outstanding  int
	fenceResume  func()
	fenceStart   sim.Cycle
	fenceStalls  sim.Cycle
	txStart      sim.Cycle
	txLatencies  *stats.Histogram
	txReservoir  *stats.Reservoir
	opsExecuted  int
	transactions int

	// Telemetry (nil/zero when disabled; see SetProbe).
	probe *telemetry.Probe
	tCPU  telemetry.TrackID
}

// backend adapts the controller to the cache.Backend interface, sourcing
// eviction data from the line mirror.
type backend struct{ s *System }

func (b backend) ReadLine(addr uint64, done func()) { b.s.Ctrl.ReadLine(addr, done) }

func (b backend) EvictLine(addr uint64) {
	var data [64]byte
	if p := b.s.mirrorAt(addr); p != nil {
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
	dev := nvm.NewDevice(eng, deviceSize(cfg), 0)
	s.Dev = dev
	s.Ctrl = controller.New(eng, dev, cfg)
	s.Hier = cache.NewHierarchy(eng, backend{s})
	return s
}

func deviceSize(cfg controller.Config) uint64 {
	if cfg.Layout.DeviceSize != 0 {
		return cfg.Layout.DeviceSize
	}
	return 24 << 30 // layout.Default()
}

// SetProbe attaches (or with nil detaches) a telemetry probe to the
// whole machine: the CPU front-end (fence stalls, transaction spans),
// the event-dispatch counter on the engine, and — via the controller —
// the WPQ, security units and NVM banks. Call before Start/Run. Hooks
// are purely observational: timing is bit-identical with and without a
// probe.
func (s *System) SetProbe(p *telemetry.Probe) {
	s.probe = p
	if p == nil {
		s.Ctrl.SetProbe(nil)
		s.Eng.SetHook(nil)
		return
	}
	s.tCPU = p.Track("cpu") // register first so the CPU is the top track
	s.Ctrl.SetProbe(p)
	events := p.Registry().Counter("sim.events_dispatched")
	s.Eng.SetHook(func(_ sim.Cycle) { events.Inc() })
}

// Probe returns the attached telemetry probe (nil when disabled).
func (s *System) Probe() *telemetry.Probe { return s.probe }

// Run executes the trace to completion and returns the result. The
// engine is drained afterwards so the controller quiesces.
func (s *System) Run(tr *trace.Trace) Result {
	s.Start(tr)
	s.Eng.Run(0)
	if !s.finished {
		panic("cpu: trace execution deadlocked (fence never satisfied)")
	}
	return s.Collect(tr)
}

// Mirror returns the current plaintext value of addr's line as the
// application last wrote it.
func (s *System) Mirror(addr uint64) ([64]byte, bool) {
	if p := s.mirrorAt(addr); p != nil {
		return *p, true
	}
	return [64]byte{}, false
}

// mirrorAt returns the mirror entry for addr's line (nil if untracked).
func (s *System) mirrorAt(addr uint64) *[64]byte { return s.mirror.At(addr) }

// setMirror records p as addr's line contents.
func (s *System) setMirror(addr uint64, p *[64]byte) { s.mirror.Set(addr, p) }

// Finished reports whether the trace has fully executed.
func (s *System) Finished() bool { return s.finished }

// Start schedules trace execution on the engine without running it; the
// caller drives the clock (RunUntil for crash injection). The trace's
// checkpoint image (the fast-forwarded warm-up state) is loaded into the
// secure memory functionally first, with no cycles charged.
func (s *System) Start(tr *trace.Trace) {
	s.prepare(tr)

	// One step/next closure pair serves the whole trace: exactly one op
	// is in flight at a time, so the shared index advances strictly after
	// the previous op's continuation fired. The former per-op `next`
	// closure was the single largest allocation site in a bench run (one
	// escape per trace op). Only the persist-completion callback still
	// allocates — it genuinely outlives its op — and it captures the
	// read-only op pointer rather than a 64-byte data copy.
	i := 0
	var step func()
	next := func() { i++; step() }
	step = func() {
		if i >= len(tr.Ops) {
			s.endCycle = s.Eng.Now()
			s.finished = true
			return
		}
		op := &tr.Ops[i]
		s.opsExecuted++
		switch op.Kind {
		case trace.Compute:
			s.Eng.After(op.Cycles, next)
		case trace.Read:
			s.Hier.Read(op.Addr, next)
		case trace.Write:
			s.setMirror(op.Addr, &op.Data)
			lat := s.Hier.Write(op.Addr)
			s.Eng.After(lat, next)
		case trace.Flush:
			s.setMirror(op.Addr, &op.Data)
			if s.Hier.FlushLine(op.Addr) {
				s.outstanding++
				s.Ctrl.PersistWrite(op.Addr, op.Data, func() {
					s.outstanding--
					if s.OnAccepted != nil {
						s.OnAccepted(op.Addr, op.Data)
					}
					if s.outstanding == 0 && s.fenceResume != nil {
						resume := s.fenceResume
						s.fenceResume = nil
						s.fenceStalls += s.Eng.Now() - s.fenceStart
						if s.probe != nil {
							s.probe.Span(s.tCPU, "fence-stall", s.fenceStart, s.Eng.Now())
						}
						resume()
					}
				})
			}
			s.Eng.After(2, next) // clwb issue cost; completion is async
		case trace.Fence:
			if s.outstanding == 0 {
				s.Eng.After(1, next)
			} else {
				s.fenceStart = s.Eng.Now()
				s.fenceResume = next
			}
		case trace.TxBegin:
			s.txStart = s.Eng.Now()
			next()
		case trace.TxEnd:
			s.transactions++
			lat := float64(s.Eng.Now() - s.txStart)
			s.txLatencies.Observe(lat)
			s.txReservoir.Observe(lat)
			if s.probe != nil {
				s.probe.Span(s.tCPU, "tx", s.txStart, s.Eng.Now())
			}
			next()
		default:
			panic(fmt.Sprintf("cpu: unknown op kind %v", op.Kind))
		}
	}

	s.Eng.At(s.Eng.Now(), step)
}

// Collect gathers the result after a Run (or a partial run).
func (s *System) Collect(tr *trace.Trace) Result {
	st := s.Ctrl.Stats()
	res := Result{
		Scheme:        s.Ctrl.Config().Scheme.String(),
		Workload:      tr.Name,
		Cycles:        s.endCycle,
		Transactions:  s.transactions,
		Ops:           s.opsExecuted,
		FenceStalls:   s.fenceStalls,
		WriteRequests: s.Ctrl.WriteRequests(),
		RetryEvents:   s.Ctrl.RetryEvents(),
		RetryPerKWR:   s.Ctrl.RetryPerKWR(),
		WPQReadHits:   st.Counter("wpq.read_hits").Value(),
		MemReads:      st.Counter("mem.reads").Value(),
	}
	res.RecoveryCycles = s.Ctrl.RecoveryEstimate()
	if s.transactions > 0 {
		res.CyclesPerTx = float64(s.endCycle) / float64(s.transactions)
	}
	if s.opsExecuted > 0 {
		res.CPI = float64(s.endCycle) / float64(s.opsExecuted)
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

// prepare marks the system running, sizes the mirror and loads the
// trace's checkpoint image functionally (no cycles charged) — the
// common prologue of Start and StartWith.
func (s *System) prepare(tr *trace.Trace) {
	if s.running {
		panic("cpu: system already running a trace")
	}
	s.running = true

	s.mirror.SizeFor(tr)
	for i := range tr.InitImage {
		il := &tr.InitImage[i]
		s.Ctrl.LoadInitLine(il.Addr, il.Data)
		s.setMirror(il.Addr, &il.Data)
	}
}

// FrontEnd is a replaceable trace consumer: Launch schedules the
// execution of tr on sys's engine, driving the hierarchy and controller
// through the exported seam below and reporting progress back through
// the Note*/Observe* methods so Collect works unchanged. The in-order
// front-end in Start stays the default; internal/mcore's out-of-order
// window plugs in here.
type FrontEnd interface {
	Launch(sys *System, tr *trace.Trace)
}

// StartWith is Start with a custom front-end: the checkpoint image is
// loaded, then fe schedules trace execution on the engine.
func (s *System) StartWith(tr *trace.Trace, fe FrontEnd) {
	s.prepare(tr)
	fe.Launch(s, tr)
}

// RunWith executes the trace to completion under a custom front-end.
func (s *System) RunWith(tr *trace.Trace, fe FrontEnd) Result {
	s.StartWith(tr, fe)
	s.Eng.Run(0)
	if !s.finished {
		panic("cpu: trace execution deadlocked (fence never satisfied)")
	}
	return s.Collect(tr)
}

// SetMirror records p as addr's line contents (front-end seam).
func (s *System) SetMirror(addr uint64, p *[64]byte) { s.setMirror(addr, p) }

// CountOp counts one executed trace operation (front-end seam).
func (s *System) CountOp() { s.opsExecuted++ }

// ObserveTx records one committed transaction that began at start:
// latency histograms, the quantile reservoir and the probe span — the
// same accounting the in-order front-end performs at TxEnd.
func (s *System) ObserveTx(start sim.Cycle) {
	s.transactions++
	lat := float64(s.Eng.Now() - start)
	s.txLatencies.Observe(lat)
	s.txReservoir.Observe(lat)
	if s.probe != nil {
		s.probe.Span(s.tCPU, "tx", start, s.Eng.Now())
	}
}

// ObserveFenceStall records a completed sfence stall that began at
// start (front-end seam; mirrors the in-order fence accounting).
func (s *System) ObserveFenceStall(start sim.Cycle) {
	s.fenceStalls += s.Eng.Now() - start
	if s.probe != nil {
		s.probe.Span(s.tCPU, "fence-stall", start, s.Eng.Now())
	}
}

// NotifyAccepted invokes the OnAccepted hook if installed (front-end
// seam: custom front-ends issue PersistWrite themselves, so they must
// also report acceptances for the crash driver).
func (s *System) NotifyAccepted(addr uint64, data [64]byte) {
	if s.OnAccepted != nil {
		s.OnAccepted(addr, data)
	}
}

// FinishNow marks the trace fully executed at the current cycle
// (front-end seam).
func (s *System) FinishNow() {
	s.endCycle = s.Eng.Now()
	s.finished = true
}
