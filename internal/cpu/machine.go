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
	"dolos/internal/wpq"
)

// CoreSeedStride separates per-core workload seeds; CoreHeapStride
// separates per-core persistent heaps in the default 16 GB data region
// (256 MB apart comfortably holds the default 48 MB heap). MaxCores is
// the most cores whose heaps fit that region: core MaxCores's heap
// would start past its end.
const (
	CoreSeedStride = 7919
	CoreHeapStride = 256 << 20
	MaxCores       = 64
)

// CoreSeed derives core i's workload seed from a base seed. Core 0
// keeps the base seed, so its trace is identical to the single-core
// trace for the same options.
func CoreSeed(seed int64, core int) int64 { return seed + int64(core)*CoreSeedStride }

// CoreHeapBase places core i's persistent heap in the default layout:
// disjoint per-core regions so instances never alias lines. Core 0
// keeps the single-core default base (4 KB into the data region).
func CoreHeapBase(core int) uint64 { return 4096 + uint64(core)*CoreHeapStride }

// CoreSpec describes one core's workload instance.
type CoreSpec struct {
	// Workload labels the instance (canonical workload name).
	Workload string
	// Seed is the instance's generator seed (recorded for audit).
	Seed int64
	// Trace is the instance's pre-generated operation stream. Its
	// addresses must be disjoint from every other core's (see
	// CoreHeapBase).
	Trace *trace.Trace
}

// MachineConfig configures a machine.
type MachineConfig struct {
	// Ctrl is the shared memory controller configuration: one WPQ, one
	// counter cache, one set of security engines for all cores.
	Ctrl controller.Config
	// Window is every core's read window (see Issuer; values below 1
	// issue as window 1, the in-order core). The result reports the
	// window asked for.
	Window int
}

// Core is one core of a machine: a private L1/L2/LLC hierarchy, line
// mirror and issue loop in front of the shared controller.
type Core struct {
	// OnAccepted, when set, observes every persist acceptance of this
	// core (used by the crash driver to know which writes the platform
	// has promised). Set it before Start.
	OnAccepted func(addr uint64, data [64]byte)

	id     int
	m      *Machine
	spec   CoreSpec
	hier   *cache.Hierarchy
	mirror *TraceMirror
	issue  *Issuer

	// Multi-core only: acceptedN counts this core's acceptances;
	// acceptFn is accepted, bound once, and issueAccepted is the issue
	// loop's acceptance callback it calls.
	acceptedN     *stats.Counter
	acceptFn      func()
	issueAccepted func()
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Spec returns the core's workload instance description.
func (c *Core) Spec() CoreSpec { return c.spec }

// Hier returns the core's private cache hierarchy.
func (c *Core) Hier() *cache.Hierarchy { return c.hier }

// Finished reports whether the core's trace fully executed.
func (c *Core) Finished() bool { return c.issue.Finished() }

// Mirror returns the plaintext the application last wrote to addr's
// line on this core.
func (c *Core) Mirror(addr uint64) ([64]byte, bool) {
	if p := c.mirror.At(addr); p != nil {
		return *p, true
	}
	return [64]byte{}, false
}

// coreBackend routes a core's hierarchy misses and evictions to the
// controller: straight in on a one-core machine, through the arbiter
// otherwise. Eviction data comes from the core's line mirror.
type coreBackend struct{ c *Core }

func (b coreBackend) ReadLine(addr uint64, done sim.Handler, arg uint64) {
	m := b.c.m
	if m.arb == nil {
		m.Ctrl.ReadLine(addr, done, arg)
		return
	}
	m.arb.submit(request{core: b.c.id, kind: reqRead, addr: addr, fill: done, arg: arg})
}

func (b coreBackend) EvictLine(addr uint64) {
	var data [64]byte
	if p := b.c.mirror.At(addr); p != nil {
		data = *p
	}
	m := b.c.m
	if m.arb == nil {
		m.Ctrl.EvictWrite(addr, data)
		return
	}
	m.arb.submit(request{core: b.c.id, kind: reqEvict, addr: addr, data: data})
}

// Persist implements Port: the flushed line goes to the controller
// (through the arbiter when cores contend), and its acceptance is
// reported to OnAccepted and counted before the issue loop sees it.
// accepted is the issue loop's one bound callback, so without an
// OnAccepted observer a flush allocates nothing.
func (c *Core) Persist(op *trace.Op, accepted func()) {
	m := c.m
	if m.arb == nil {
		if c.OnAccepted == nil {
			m.Ctrl.PersistWrite(op.Addr, op.Data, accepted)
			return
		}
		m.Ctrl.PersistWrite(op.Addr, op.Data, func() {
			c.OnAccepted(op.Addr, op.Data)
			accepted()
		})
		return
	}
	if c.OnAccepted == nil {
		c.issueAccepted = accepted
		m.arb.submit(request{core: c.id, kind: reqPersist, addr: op.Addr, data: op.Data, done: c.acceptFn})
		return
	}
	m.arb.submit(request{core: c.id, kind: reqPersist, addr: op.Addr, data: op.Data, done: func() {
		c.acceptedN.Inc()
		c.OnAccepted(op.Addr, op.Data)
		accepted()
	}})
}

// accepted counts one accepted persist and passes it to the issue loop.
func (c *Core) accepted() {
	c.acceptedN.Inc()
	c.issueAccepted()
}

// Machine is the simulated machine: one core per workload instance,
// each with a private hierarchy and issue loop, sharing one engine, one
// memory controller and one NVM device.
//
// A core reaches the controller through a port chosen by the core
// count. With one core the port is the controller itself. With more,
// every read, persist and eviction queues at an arbiter whose command
// port grants one request per cycle (DESIGN.md §13): the command port
// models contention, so a machine has one only when cores contend.
type Machine struct {
	Eng   *sim.Engine
	Dev   *nvm.Device
	Ctrl  *controller.Controller
	Cores []*Core

	cfg     MachineConfig
	arb     *arbiter // nil with one core
	txLat   *stats.Histogram
	txRes   *stats.Reservoir
	started bool
	// tracesOK records that CheckTraces passed every core's trace.
	tracesOK bool
	probe    *telemetry.Probe
}

// NewMachine builds a machine with one core per CoreSpec, all
// contending for the controller cfg.Ctrl configures. A multi-core
// machine interns the shared WPQ occupancy histogram ("wpq.occupancy")
// and per-core fairness counters in the controller's stats set; a
// one-core machine interns none of them.
func NewMachine(cfg MachineConfig, specs []CoreSpec) *Machine {
	if len(specs) == 0 {
		panic("cpu: a machine needs at least one core")
	}
	m := &Machine{}
	cores := make([]Core, len(specs))
	m.Cores = make([]*Core, len(specs))
	for i := range cores {
		cores[i].spec = specs[i]
		m.Cores[i] = &cores[i]
	}
	m.build(cfg)
	return m
}

// build wires the engine, the controller and every core of m.Cores.
func (m *Machine) build(cfg MachineConfig) {
	m.cfg = cfg
	m.Eng = sim.NewEngine()
	m.Dev = nvm.NewDevice(m.Eng, cfg.Ctrl.DeviceSize(), 0)
	m.Ctrl = controller.New(m.Eng, m.Dev, cfg.Ctrl)
	m.txLat = stats.NewHistogram("tx_latency")
	m.txRes = stats.NewReservoir("tx_latency", 0)
	if len(m.Cores) > 1 {
		hOcc := m.Ctrl.Stats().Histogram("wpq.occupancy")
		m.Ctrl.Queue().SetObserver(func(_ wpq.ObsEvent, _ uint64, live int) {
			hOcc.Observe(float64(live))
		})
		m.arb = newArbiter(m.Eng, m.Ctrl, len(m.Cores))
	}
	for i, c := range m.Cores {
		c.id, c.m = i, m
		c.mirror = NewTraceMirror()
		c.hier = cache.NewHierarchy(m.Eng, coreBackend{c})
		c.issue = NewIssuer(m.Eng, c.hier, c.mirror, c, m.txLat, m.txRes)
		if m.arb != nil {
			c.acceptedN = m.Ctrl.Stats().Counter(fmt.Sprintf("mcore.core%d.accepted", i))
			c.acceptFn = c.accepted
		}
	}
}

// SetProbe attaches (or with nil detaches) a telemetry probe to the
// whole machine: every core's issue loop (fence stalls, transaction
// spans; core 0 on the "cpu" track, core i on "cpu<i>"), the
// event-dispatch counter on the engine, and — via the controller — the
// WPQ, security units and NVM banks. Call before Start. Hooks are
// purely observational: timing is bit-identical with and without a
// probe.
func (m *Machine) SetProbe(p *telemetry.Probe) {
	m.probe = p
	for i, c := range m.Cores {
		c.issue.probe = p
		if p != nil {
			// Register the core tracks first so they lead the trace.
			name := "cpu"
			if i > 0 {
				name = fmt.Sprintf("cpu%d", i)
			}
			c.issue.track = p.Track(name)
		}
	}
	if p == nil {
		m.Ctrl.SetProbe(nil)
		m.Eng.SetHook(nil)
		return
	}
	m.Ctrl.SetProbe(p)
	events := p.Registry().Counter("sim.events_dispatched")
	m.Eng.SetHook(func(_ sim.Cycle) { events.Inc() })
}

// Probe returns the attached telemetry probe (nil when disabled).
func (m *Machine) Probe() *telemetry.Probe { return m.probe }

// TxLatency returns the per-transaction latency histogram, shared by
// every core.
func (m *Machine) TxLatency() *stats.Histogram { return m.txLat }

// CheckTraces reports the first core whose trace addresses a line
// outside the controller's data region (trace.Trace.CheckLayout). Start
// panics with the same error, so a caller holding a trace from outside
// the program checks it first; Start does not scan traces again that
// CheckTraces passed.
func (m *Machine) CheckTraces() error {
	if m.tracesOK {
		return nil
	}
	lay := m.Ctrl.Config().Layout
	for _, c := range m.Cores {
		if err := c.spec.Trace.CheckLayout(lay); err != nil {
			return fmt.Errorf("cpu: core %d: %w", c.id, err)
		}
	}
	m.tracesOK = true
	return nil
}

// Start loads every core's checkpoint image (the fast-forwarded
// warm-up state) into the secure memory functionally — core order, no
// cycles charged — and schedules every core's issue loop at the
// current cycle, core order again, so the first-cycle interleave is
// deterministic. The caller drives the clock (RunUntil for crash
// injection). It panics with CheckTraces's error before loading
// anything.
func (m *Machine) Start() {
	if err := m.start(); err != nil {
		panic(err)
	}
}

// start is Start returning CheckTraces's error instead of panicking.
func (m *Machine) start() error {
	if m.started {
		panic("cpu: machine already running")
	}
	if err := m.CheckTraces(); err != nil {
		return err
	}
	m.started = true
	for _, c := range m.Cores {
		tr := c.spec.Trace
		c.mirror.SizeFor(tr)
		m.Ctrl.LoadImage(tr.InitImage)
		for i := range tr.InitImage {
			il := &tr.InitImage[i]
			c.mirror.Set(il.Addr, &il.Data)
		}
	}
	for _, c := range m.Cores {
		c.issue.Start(c.spec.Trace, m.cfg.Window)
	}
	return nil
}

// Run executes every core's trace to completion and collects the
// result.
func (m *Machine) Run() Result {
	m.Start()
	m.runToEnd()
	return m.Collect()
}

// runToEnd drains the engine, so the controller quiesces, and panics if
// a core's trace did not finish.
func (m *Machine) runToEnd() {
	m.Eng.Run(0)
	for _, c := range m.Cores {
		if !c.Finished() {
			panic(fmt.Sprintf("cpu: core %d deadlocked (fence never satisfied)", c.id))
		}
	}
}

// Collect gathers the result after a Run (or a partial run). Cycle
// rates use the slowest core's end cycle (the run finishes when the
// last core does). A multi-core result also carries per-core
// summaries; a one-core result leaves Cores and PerCore zero.
func (m *Machine) Collect() Result {
	st := m.Ctrl.Stats()
	res := Result{
		Scheme:        m.Ctrl.Config().Scheme.String(),
		Workload:      m.workloadLabel(),
		OoOWindow:     m.cfg.Window,
		WriteRequests: m.Ctrl.WriteRequests(),
		RetryEvents:   m.Ctrl.RetryEvents(),
		RetryPerKWR:   m.Ctrl.RetryPerKWR(),
		WPQReadHits:   st.Counter("wpq.read_hits").Value(),
		MemReads:      st.Counter("mem.reads").Value(),
	}
	res.RecoveryCycles = m.Ctrl.RecoveryEstimate()
	for _, c := range m.Cores {
		l := c.issue
		res.Cycles = max(res.Cycles, l.EndCycle())
		res.Transactions += l.Transactions()
		res.Ops += l.Ops()
		res.FenceStalls += l.FenceStalls()
		res.Prefetches += l.Prefetches()
		if m.arb == nil {
			continue
		}
		res.PerCore = append(res.PerCore, CoreResult{
			Core:             c.id,
			Workload:         c.spec.Workload,
			Seed:             c.spec.Seed,
			Cycles:           l.EndCycle(),
			Transactions:     l.Transactions(),
			Ops:              l.Ops(),
			FenceStalls:      l.FenceStalls(),
			AcceptedPersists: c.acceptedN.Value(),
			ArbGrants:        m.arb.grants[c.id].Value(),
			ArbWaitCycles:    m.arb.waits[c.id].Value(),
		})
	}
	if m.arb != nil {
		res.Cores = len(m.Cores)
	}
	if res.Transactions > 0 {
		res.CyclesPerTx = float64(res.Cycles) / float64(res.Transactions)
	}
	if res.Ops > 0 {
		res.CPI = float64(res.Cycles) / float64(res.Ops)
	}
	res.MeanInterarrival = st.Histogram("wpq.interarrival_cycles").Mean()
	res.WPQMeanOccupancy = st.Histogram("wpq.occupancy_at_arrival").Mean()
	if m.txRes.Count() > 0 {
		res.MedianTxCycles = m.txRes.Median()
		res.P99TxCycles = m.txRes.P99()
	}
	return res
}

// workloadLabel is the shared workload name, or "mixed" when cores run
// different workloads.
func (m *Machine) workloadLabel() string {
	name := m.Cores[0].spec.Workload
	for _, c := range m.Cores[1:] {
		if c.spec.Workload != name {
			return "mixed"
		}
	}
	return name
}
