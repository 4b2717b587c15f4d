// Package mcore is the multi-core machine: N workload instances, each
// on its own core with a private cache hierarchy, contend for one
// memory controller, one counter cache and one WPQ through a
// deterministic cycle-ordered arbiter. Every core runs the same issue
// loop as the single-core cpu.System (cpu.Issuer), with its persists,
// misses and evictions routed through the arbiter.
package mcore

import (
	"fmt"

	"dolos/internal/cache"
	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/nvm"
	"dolos/internal/sim"
	"dolos/internal/stats"
	"dolos/internal/trace"
	"dolos/internal/wpq"
)

// CoreSeedStride separates per-core workload seeds; CoreHeapStride
// separates per-core persistent heaps in the default 16 GB data region
// (256 MB apart comfortably holds the default 48 MB heap, for up to 64
// cores).
const (
	CoreSeedStride = 7919
	CoreHeapStride = 256 << 20
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

// Config configures a multi-core system.
type Config struct {
	// Ctrl is the shared memory controller configuration: one WPQ, one
	// counter cache, one set of security engines for all cores.
	Ctrl controller.Config
	// Window is every core's read window (see cpu.Issuer; values below
	// 1 clamp to 1, the in-order core).
	Window int
}

// Core is one core of a multi-core system: a private L1/L2/LLC
// hierarchy and line mirror around the shared controller.
type Core struct {
	// OnAccepted, when set, observes this core's persist acceptances
	// (crash-driver seam, like cpu.System.OnAccepted).
	OnAccepted func(addr uint64, data [64]byte)

	id        int
	sys       *System
	spec      CoreSpec
	hier      *cache.Hierarchy
	mirror    *cpu.TraceMirror
	issue     *cpu.Issuer
	acceptedN *stats.Counter

	// acceptFn is accepted, bound once; issueAccepted is the issue
	// loop's acceptance callback it calls.
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

// coreBackend routes a core's hierarchy misses and evictions through
// the shared arbiter.
type coreBackend struct{ c *Core }

func (b coreBackend) ReadLine(addr uint64, done sim.Handler, arg uint64) {
	b.c.sys.arb.submit(request{core: b.c.id, kind: reqRead, addr: addr, fill: done, arg: arg})
}

func (b coreBackend) EvictLine(addr uint64) {
	var data [64]byte
	if p := b.c.mirror.At(addr); p != nil {
		data = *p
	}
	b.c.sys.arb.submit(request{core: b.c.id, kind: reqEvict, addr: addr, data: data})
}

// Persist implements cpu.Port: the flushed line queues at the shared
// arbiter, and its acceptance is counted and reported before the issue
// loop sees it. accepted is the issue loop's one bound callback (see
// cpu.Port), so without an OnAccepted observer every flush shares the
// core's bound acceptFn and allocates nothing.
func (c *Core) Persist(op *trace.Op, accepted func()) {
	if c.OnAccepted == nil {
		c.issueAccepted = accepted
		c.sys.arb.submit(request{core: c.id, kind: reqPersist, addr: op.Addr, data: op.Data, done: c.acceptFn})
		return
	}
	c.sys.arb.submit(request{core: c.id, kind: reqPersist, addr: op.Addr, data: op.Data, done: func() {
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

// System is the multi-core machine: N cores with private hierarchies
// and issue loops sharing one engine, one controller and one NVM device.
type System struct {
	Eng   *sim.Engine
	Dev   *nvm.Device
	Ctrl  *controller.Controller
	Cores []*Core

	cfg     Config
	arb     *arbiter
	txLat   *stats.Histogram
	txRes   *stats.Reservoir
	started bool
}

// NewSystem builds a multi-core machine: every CoreSpec becomes one
// core contending for the shared controller. It also interns the
// shared WPQ occupancy histogram ("wpq.occupancy") and per-core
// fairness counters in the controller's stats set — lazily, here, so
// single-core runs' snapshots stay byte-identical to the committed
// bench baseline.
func NewSystem(cfg Config, cores []CoreSpec) *System {
	if len(cores) == 0 {
		panic("mcore: need at least one core")
	}
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	eng := sim.NewEngine()
	dev := nvm.NewDevice(eng, cfg.Ctrl.DeviceSize(), 0)
	ctrl := controller.New(eng, dev, cfg.Ctrl)
	s := &System{
		Eng:   eng,
		Dev:   dev,
		Ctrl:  ctrl,
		cfg:   cfg,
		txLat: stats.NewHistogram("tx_latency"),
		txRes: stats.NewReservoir("tx_latency", 0),
	}
	hOcc := ctrl.Stats().Histogram("wpq.occupancy")
	ctrl.Queue().SetObserver(func(_ wpq.ObsEvent, _ uint64, live int) {
		hOcc.Observe(float64(live))
	})
	s.arb = newArbiter(eng, ctrl, len(cores))
	for i, cs := range cores {
		c := &Core{
			id:        i,
			sys:       s,
			spec:      cs,
			mirror:    cpu.NewTraceMirror(),
			acceptedN: ctrl.Stats().Counter(fmt.Sprintf("mcore.core%d.accepted", i)),
		}
		c.acceptFn = c.accepted
		c.hier = cache.NewHierarchy(eng, coreBackend{c})
		c.issue = cpu.NewIssuer(eng, c.hier, c.mirror, c, s.txLat, s.txRes)
		s.Cores = append(s.Cores, c)
	}
	return s
}

// Start loads every core's checkpoint image functionally (core order,
// no cycles charged) and schedules every core's issue loop at the
// current cycle — core order again, so the first-cycle interleave is
// deterministic.
func (s *System) Start() {
	if s.started {
		panic("mcore: system already running")
	}
	s.started = true
	for _, c := range s.Cores {
		tr := c.spec.Trace
		c.mirror.SizeFor(tr)
		s.Ctrl.LoadImage(tr.InitImage)
		for i := range tr.InitImage {
			il := &tr.InitImage[i]
			c.mirror.Set(il.Addr, &il.Data)
		}
	}
	for _, c := range s.Cores {
		c.issue.Start(c.spec.Trace, s.cfg.Window)
	}
}

// Run executes every core's trace to completion and collects the
// aggregate result.
func (s *System) Run() cpu.Result {
	s.Start()
	s.Eng.Run(0)
	for _, c := range s.Cores {
		if !c.Finished() {
			panic(fmt.Sprintf("mcore: core %d deadlocked (fence never satisfied)", c.id))
		}
	}
	return s.Collect()
}

// Collect gathers the aggregate result plus per-core summaries.
// Aggregate cycle-derived rates use the slowest core's end cycle (the
// run finishes when the last core does).
func (s *System) Collect() cpu.Result {
	st := s.Ctrl.Stats()
	res := cpu.Result{
		Scheme:        s.Ctrl.Config().Scheme.String(),
		Workload:      s.workloadLabel(),
		Cores:         len(s.Cores),
		OoOWindow:     s.cfg.Window,
		WriteRequests: s.Ctrl.WriteRequests(),
		RetryEvents:   s.Ctrl.RetryEvents(),
		RetryPerKWR:   s.Ctrl.RetryPerKWR(),
		WPQReadHits:   st.Counter("wpq.read_hits").Value(),
		MemReads:      st.Counter("mem.reads").Value(),
	}
	res.RecoveryCycles = s.Ctrl.RecoveryEstimate()
	for _, c := range s.Cores {
		l := c.issue
		res.Cycles = max(res.Cycles, l.EndCycle())
		res.Transactions += l.Transactions()
		res.Ops += l.Ops()
		res.FenceStalls += l.FenceStalls()
		res.Prefetches += l.Prefetches()
		res.PerCore = append(res.PerCore, cpu.CoreResult{
			Core:             c.id,
			Workload:         c.spec.Workload,
			Seed:             c.spec.Seed,
			Cycles:           l.EndCycle(),
			Transactions:     l.Transactions(),
			Ops:              l.Ops(),
			FenceStalls:      l.FenceStalls(),
			AcceptedPersists: c.acceptedN.Value(),
			ArbGrants:        s.arb.grants[c.id].Value(),
			ArbWaitCycles:    s.arb.waits[c.id].Value(),
		})
	}
	if res.Transactions > 0 {
		res.CyclesPerTx = float64(res.Cycles) / float64(res.Transactions)
	}
	if res.Ops > 0 {
		res.CPI = float64(res.Cycles) / float64(res.Ops)
	}
	res.MeanInterarrival = st.Histogram("wpq.interarrival_cycles").Mean()
	res.WPQMeanOccupancy = st.Histogram("wpq.occupancy_at_arrival").Mean()
	if s.txRes.Count() > 0 {
		res.MedianTxCycles = s.txRes.Median()
		res.P99TxCycles = s.txRes.P99()
	}
	return res
}

// workloadLabel is the shared workload name, or "mixed" when cores run
// different workloads.
func (s *System) workloadLabel() string {
	name := s.Cores[0].spec.Workload
	for _, c := range s.Cores[1:] {
		if c.spec.Workload != name {
			return "mixed"
		}
	}
	return name
}
