// Package controller implements the secure NVM memory controller: the WPQ,
// the Mi-SU and Ma-SU, and the insertion/drain/read machinery, in the five
// configurations the paper evaluates:
//
//   - NonSecureADR — the ideal reference (Figure 5-c as a hypothetical):
//     writes persist the moment they enter the WPQ; security is applied
//     functionally at drain time with no run-time cost. Infeasible in
//     hardware (ADR cannot power the security unit), used as the upper
//     bound in Figure 6.
//   - PreWPQSecure — the state-of-the-art baseline (Figure 5-b, Anubis
//     AGIT): every write pays counter fetch + encryption + MAC + eager
//     tree update before entering the persistence domain.
//   - DolosFull / DolosPartial / DolosPost — Figure 5-d with the three
//     Mi-SU designs: a cheap Mi-SU protects the WPQ at insertion; the
//     Ma-SU performs the conventional security work after eviction from
//     the WPQ, off the critical path.
//
// The controller is simultaneously functional (real ciphertext, MACs,
// trees on the NVM device — crashes, recovery and attacks operate on real
// state) and timed (latencies from Table 1 drive the discrete-event
// model).
package controller

import (
	"errors"
	"fmt"

	"dolos/internal/cache"
	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/misu"
	"dolos/internal/nvm"
	"dolos/internal/scheme"
	"dolos/internal/sim"
	"dolos/internal/stats"
	"dolos/internal/telemetry"
	"dolos/internal/trace"
	"dolos/internal/wpq"
)

// Scheme identifies a secure-memory controller configuration. The type
// now lives in internal/scheme (the central registry that also carries
// each scheme's security pipeline); the alias and re-exported constants
// keep every existing call site source-compatible and the values
// bit-identical.
type Scheme = scheme.ID

const (
	NonSecureADR = scheme.NonSecureADR
	PreWPQSecure = scheme.PreWPQSecure
	DolosFull    = scheme.DolosFull
	DolosPartial = scheme.DolosPartial
	DolosPost    = scheme.DolosPost
	EADRSecure   = scheme.EADRSecure
	TriadNVM     = scheme.TriadNVM
	SuperMem     = scheme.SuperMem
	Phoenix      = scheme.Phoenix
	STUM         = scheme.STUM
)

// Config parameterizes a controller.
type Config struct {
	// Scheme selects the secure-memory configuration.
	Scheme Scheme
	// Tree selects the Ma-SU integrity backend (eager BMT or lazy ToC).
	Tree masu.TreeKind
	// HardwareWPQ is the physical WPQ entry count (16 in Table 1). The
	// usable count under each Mi-SU design derives from it.
	HardwareWPQ int
	// OsirisPeriod is the counter persist period (0 = default).
	OsirisPeriod uint64
	// Layout is the NVM address map (zero value = layout.Default()).
	Layout layout.Map
	// AESKey and MACKey are the processor key registers.
	AESKey, MACKey [16]byte
	// DisableCoalescing turns off the WPQ tag-array coalescing
	// optimization (ablation).
	DisableCoalescing bool
	// CounterCacheBytes / MTCacheBytes override the Table 1 metadata
	// cache capacities (0 = defaults; cache-size ablations).
	CounterCacheBytes uint64
	MTCacheBytes      uint64
	// TriadLevels overrides Triad-NVM's persisted tree-level count N
	// (0 = the scheme's default of 1). N >= the tree height models full
	// tree persistence — the slow-runtime/instant-recovery end of the
	// tradeoff. Ignored by schemes without partial tree persistence.
	TriadLevels int
	// MaSUInterval overrides the Ma-SU pipeline initiation interval
	// (0 = one write per MAC stage). Larger values model weaker memory
	// back-ends — the knob for the "Dolos composes with any back-end
	// optimization" ablation.
	MaSUInterval sim.Cycle
	// FastMode swaps the functional crypto provider for the latency-only
	// one (crypt.FastEngine): no AES, no SHA-256, identical timing.
	// Every deterministic field of a run is bit-identical to functional
	// mode — the model charges latency from cost counts and addresses,
	// never from crypto bytes — but NVM contents are fake, so Crash,
	// Recover and the audit paths refuse to run (see masu.ErrFastMode).
	// No CLI or core.Spec sets it: the repository benchmark's btree-fast
	// workload and the bit-identity tests do (DESIGN.md §14).
	FastMode bool
}

// DefaultWPQ is the hardware WPQ size a zero Config.HardwareWPQ selects
// (Table 1), and MaxWPQ the largest Validate accepts.
const (
	DefaultWPQ = 16
	MaxWPQ     = 1024
)

// ErrInvalidConfig marks a controller configuration the model does not
// define. Every error Validate returns wraps it.
var ErrInvalidConfig = errors.New("invalid controller config")

// ConfigError reports one Config field whose value the model does not
// define. It wraps ErrInvalidConfig.
type ConfigError struct {
	// Field names the Config field.
	Field string
	// Value is the field's value as given.
	Value any
	// Reason says which rule the value breaks.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("controller: %s %v: %s", e.Field, e.Value, e.Reason)
}

func (e *ConfigError) Unwrap() error { return ErrInvalidConfig }

// Validate reports the first field of c that the model does not define:
// a scheme outside the registry, a tree kind other than the eager BMT
// and the lazy ToC, a hardware WPQ outside 1 to MaxWPQ (0 selects
// DefaultWPQ), a metadata-cache override that is neither 0 nor a
// geometry cache.New accepts, or one larger than the layout's region
// whose lines it caches (counter blocks, tree nodes), or a negative
// Triad-NVM level count. New panics with the same error, so a caller
// with a config from outside the program validates it first.
func (c Config) Validate() error {
	bad := func(field string, v any, reason string) error {
		return &ConfigError{Field: field, Value: v, Reason: reason}
	}
	if _, ok := scheme.ByID(c.Scheme); !ok {
		return bad("Scheme", int(c.Scheme), "not in the scheme registry")
	}
	if c.Tree != masu.BMTEager && c.Tree != masu.ToCLazy {
		return bad("Tree", int(c.Tree), "want the eager BMT or the lazy ToC")
	}
	d := c.withDefaults()
	if d.HardwareWPQ < 1 || d.HardwareWPQ > MaxWPQ {
		return bad("HardwareWPQ", c.HardwareWPQ, fmt.Sprintf("want 1 to %d, or 0 for %d", MaxWPQ, DefaultWPQ))
	}
	lay := d.Layout
	for _, o := range []struct {
		field, region string
		bytes, max    uint64 // max: the bytes of the region the cache holds lines of
		ways          int
	}{
		{"CounterCacheBytes", "counter", c.CounterCacheBytes, lay.TreeBase - lay.CounterBase, masu.CounterCacheWays},
		{"MTCacheBytes", "tree", c.MTCacheBytes, lay.MACBase - lay.TreeBase, masu.MTCacheWays},
	} {
		if o.bytes == 0 {
			continue
		}
		if err := cache.CheckGeometry(o.bytes, o.ways, masu.MetaLineSize); err != nil {
			return bad(o.field, o.bytes, err.Error())
		}
		if o.bytes > o.max {
			return bad(o.field, o.bytes, fmt.Sprintf("over the %d-byte %s region it caches", o.max, o.region))
		}
	}
	if c.TriadLevels < 0 {
		return bad("TriadLevels", c.TriadLevels, "want 0 (the scheme default) or more")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.HardwareWPQ == 0 {
		c.HardwareWPQ = DefaultWPQ
	}
	if c.Layout == (layout.Map{}) {
		c.Layout = layout.Default()
	}
	// Reconstruction-style schemes need the eager BMT; Phoenix is by
	// definition the lazy ToC. Legacy schemes leave the choice free.
	if p := scheme.PipelineOf(c.Scheme); p.HasForceTree {
		c.Tree = p.ForceTree
	}
	return c
}

// masuParams resolves the Ma-SU tuning parameters, including the
// scheme's metadata-persistence policy.
func (c Config) masuParams() masu.Params {
	return masu.Params{
		OsirisPeriod:      c.OsirisPeriod,
		CounterCacheBytes: c.CounterCacheBytes,
		MTCacheBytes:      c.MTCacheBytes,
		Policy:            scheme.PipelineOf(c.Scheme).PolicyFor(c.TriadLevels),
	}
}

// EffectiveTree returns the integrity backend the controller will
// actually run: the configured one, unless the scheme's pipeline pins a
// backend (Phoenix is the lazy ToC by definition; reconstruction-style
// schemes need the eager BMT). Display and record labels use this so
// they describe the simulated configuration, not the flag.
func (c Config) EffectiveTree() masu.TreeKind {
	return c.withDefaults().Tree
}

// DeviceSize returns the size of the NVM device New must be given: the
// layout's, or the default layout's when the layout leaves it zero.
func (c Config) DeviceSize() uint64 {
	if c.Layout.DeviceSize != 0 {
		return c.Layout.DeviceSize
	}
	return layout.Default().DeviceSize
}

// UsableWPQ returns the WPQ entries available for writes under the
// configured scheme.
func (c Config) UsableWPQ() int {
	c = c.withDefaults()
	if c.Scheme.IsDolos() {
		return c.Scheme.MiSUDesign().Entries(c.HardwareWPQ)
	}
	return c.HardwareWPQ
}

// waiter is a write request: the line and the acceptance callback of
// its requester. Parked writes (retried insertions) wait as waiters.
type waiter struct {
	addr     uint64
	data     [64]byte
	accepted func()
}

// insert is a write request with a job in flight before it holds a
// WPQ slot — in the Pre-WPQ security unit or the Mi-SU — and the crash
// epoch the job was submitted in. The job's argument is its row in
// Controller.inserts.
type insert struct {
	w     waiter
	epoch uint64
}

// drain is a write on its way to the NVM array — through the Ma-SU, the
// eADR background pipeline or straight from the baseline WPQ — or a
// Post-WPQ deferred MAC: its line, its WPQ slot and, for a Ma-SU drain,
// the entry's Seq at fetch, and the crash epoch its job was submitted
// in. The job's argument is its row in Controller.drains. The record
// lives in the row, not in per-slot tables: a stale completion from
// before a crash must not read the epoch of the slot's next occupant,
// and a Dolos entry coalesced while fetched is fetched again with its
// first drain still in flight.
type drain struct {
	addr     uint64
	epoch    uint64
	slot     int
	fetchSeq uint64
}

// Controller is a secure NVM memory controller instance.
type Controller struct {
	cfg  Config
	pipe scheme.Pipeline // the scheme's security pipeline (registry-derived)
	eng  *sim.Engine
	dev  *nvm.Device

	ma *masu.Unit // Major Security Unit
	mi *misu.Unit // Dolos schemes only
	bq *wpq.Queue // baseline/ideal schemes: plain WPQ (timing + drain)
	st *stats.Set

	// costs is the scheme's dense latency table: every security-work
	// charge is priced through it.
	costs scheme.CostTable

	secUnit *sim.PipeServer // PreWPQSecure: the security pipeline
	miSU    *sim.PipeServer // Dolos: the Mi-SU MAC engine
	maSU    *sim.PipeServer // Dolos: the Ma-SU pipeline

	// waiters[waitHead:] is the retry queue of parked writes. The head
	// index (rather than re-slicing on pop) keeps the backing array's
	// base fixed, so pushes reuse freed capacity instead of marching the
	// slice through the heap one realloc per retry burst.
	waiters  []waiter
	waitHead int

	insertTime  []sim.Cycle // WPQ slot -> insertion cycle (drain-delay window, drain latency)
	crashed     bool
	epoch       uint64 // bumped at every crash; stale events self-cancel
	maPumpArmed bool
	maPumpEpoch uint64 // c.epoch when the armed Ma-SU fetch was scheduled
	haveArrival bool
	lastArrival float64

	// Requests in flight (see insert, drain and read) and the
	// completions of their jobs, bound once in New so that no request
	// allocates.
	inserts   sim.Slab[insert]
	drains    sim.Slab[drain]
	reads     sim.Slab[read]
	readDelay *sim.Delay

	preWPQSecuredFn   sim.Handler
	baselineDrainedFn sim.Handler
	idealDrainedFn    sim.Handler
	eadrSecuredFn     sim.Handler
	eadrWrittenFn     sim.Handler
	dolosInsertedFn   sim.Handler
	deferredMACFn     sim.Handler
	maSecuredFn       sim.Handler
	maDrainedFn       sim.Handler
	maFetchFn         func()
	readFetchedFn     sim.Handler

	// Telemetry (nil/zero when disabled; see SetProbe). Metric handles
	// are cached at wiring time so probe sites cost one nil check.
	probe              *telemetry.Probe
	tWPQ, tMiSU, tMaSU telemetry.TrackID
	hAccept            *telemetry.CycleHist
	hDrain             *telemetry.CycleHist
	// wpqInner is the WPQ observer the probe's observer wraps (the
	// machine's occupancy histogram, when cores contend); detaching the
	// probe puts it back.
	wpqInner wpq.Observer

	// Interned stats handles. stats.Set.Counter creates-on-first-use and
	// returns a stable pointer, so resolving each hot-path metric once in
	// New turns every per-event update into a pointer increment instead
	// of a map[string] hash+probe. Cold-path readers (cpu result
	// extraction, accessors below) still go through the Set by name and
	// see the same objects.
	cWriteRequests    *stats.Counter   // wpq.write_requests
	cEvictRequests    *stats.Counter   // wpq.evict_requests (lazy: see EvictWrite)
	cInserted         *stats.Counter   // wpq.inserted
	cRetryEvents      *stats.Counter   // wpq.retry_events
	cReadHits         *stats.Counter   // wpq.read_hits
	cMemReads         *stats.Counter   // mem.reads
	cDrained          *stats.Counter   // masu.drained
	cCounterMisses    *stats.Counter   // masu.counter_misses
	cTreeMisses       *stats.Counter   // masu.tree_misses
	cSerialMACs       *stats.Counter   // masu.serial_macs
	cNVMWrites        *stats.Counter   // masu.nvm_writes
	cShadowWrites     *stats.Counter   // masu.shadow_writes
	cPageReenc        *stats.Counter   // masu.page_reencryptions
	cReadCounterMiss  *stats.Counter   // masu.read_counter_misses
	cReadTreeMiss     *stats.Counter   // masu.read_tree_misses
	hInterarrival     *stats.Histogram // wpq.interarrival_cycles
	hOccupancyArrival *stats.Histogram // wpq.occupancy_at_arrival
}

// New creates a controller bound to a simulation engine and NVM device.
// The device must span cfg.Layout.DeviceSize. It panics with
// cfg.Validate's error on a config the model does not define.
func New(eng *sim.Engine, dev *nvm.Device, cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	costs := scheme.CostTableFor(cfg.Scheme)
	// The execution-mode seam: functional runs build the security units
	// with the real crypto engine; fast runs swap in the latency-only
	// provider.
	var engine crypt.Provider
	if cfg.FastMode {
		engine = crypt.NewFastEngine()
	} else {
		engine = crypt.NewEngine(cfg.AESKey, cfg.MACKey)
	}
	// Initiation intervals: a new write can enter a security pipeline
	// every MAC stage. Post-WPQ's insert path has no MAC at all.
	maII := cfg.MaSUInterval
	if maII == 0 {
		maII = costs.MaII
	}
	c := &Controller{
		cfg:        cfg,
		pipe:       scheme.PipelineOf(cfg.Scheme),
		eng:        eng,
		dev:        dev,
		st:         stats.NewSet(),
		costs:      costs,
		secUnit:    sim.NewPipeServer(eng, "security-unit", maII),
		miSU:       sim.NewPipeServer(eng, "mi-su", costs.MiII),
		maSU:       sim.NewPipeServer(eng, "ma-su", maII),
		insertTime: make([]sim.Cycle, cfg.UsableWPQ()),
		ma:         masu.NewWithParams(cfg.Tree, engine, dev, cfg.Layout, cfg.masuParams()),
		readDelay:  sim.NewDelay(eng),
	}
	c.preWPQSecuredFn = c.preWPQSecured
	c.baselineDrainedFn = c.baselineDrained
	c.idealDrainedFn = c.idealDrained
	c.eadrSecuredFn = c.eadrSecured
	c.eadrWrittenFn = c.eadrWritten
	c.dolosInsertedFn = c.dolosInserted
	c.deferredMACFn = c.deferredMACDone
	c.maSecuredFn = c.maSecured
	c.maDrainedFn = c.maDrained
	c.maFetchFn = c.maFetch
	c.readFetchedFn = c.readFetched
	// Every metric below appears in any run that issues a single write or
	// read, so resolving them eagerly does not change which names a
	// RunRecord snapshot reports. wpq.evict_requests is the exception —
	// bench-grid runs never evict — so EvictWrite interns it on first
	// use to keep snapshots byte-identical with the lazy registry.
	c.cWriteRequests = c.st.Counter("wpq.write_requests")
	c.cInserted = c.st.Counter("wpq.inserted")
	c.cRetryEvents = c.st.Counter("wpq.retry_events")
	c.cReadHits = c.st.Counter("wpq.read_hits")
	c.cMemReads = c.st.Counter("mem.reads")
	c.cDrained = c.st.Counter("masu.drained")
	c.cCounterMisses = c.st.Counter("masu.counter_misses")
	c.cTreeMisses = c.st.Counter("masu.tree_misses")
	c.cSerialMACs = c.st.Counter("masu.serial_macs")
	c.cNVMWrites = c.st.Counter("masu.nvm_writes")
	c.cShadowWrites = c.st.Counter("masu.shadow_writes")
	c.cPageReenc = c.st.Counter("masu.page_reencryptions")
	c.cReadCounterMiss = c.st.Counter("masu.read_counter_misses")
	c.cReadTreeMiss = c.st.Counter("masu.read_tree_misses")
	c.hInterarrival = c.st.Histogram("wpq.interarrival_cycles")
	c.hOccupancyArrival = c.st.Histogram("wpq.occupancy_at_arrival")
	if cfg.Scheme.IsDolos() {
		c.mi = misu.New(cfg.Scheme.MiSUDesign(), engine, dev, cfg.Layout.DrainBase, cfg.UsableWPQ())
	} else {
		c.bq = wpq.New(cfg.UsableWPQ())
	}
	if cfg.DisableCoalescing {
		c.queue().SetCoalescing(false)
	}
	return c
}

// Functional reports whether the controller's security units compute
// real cryptographic state (false under FastMode).
func (c *Controller) Functional() bool { return c.ma.Functional() }

// Stats returns the controller's statistics registry.
func (c *Controller) Stats() *stats.Set { return c.st }

// MaSU returns the Major Security Unit.
func (c *Controller) MaSU() *masu.Unit { return c.ma }

// MetaCaches returns the Ma-SU's counter and Merkle-tree metadata caches.
func (c *Controller) MetaCaches() (counter, mt *cache.Cache) {
	return c.ma.CounterCache(), c.ma.MTCache()
}

// Quiesce is a no-op kept for callers that bracket the end of a run
// with it: every controller applies its functional work inline, so the
// state is complete as soon as the event loop drains.
func (c *Controller) Quiesce() {}

// LoadImage installs a checkpoint image functionally, in order, with no
// cycles charged — the Start-time prologue. The state it leaves is the
// state of one Ma-SU write per line (masu.Unit.LoadImage).
func (c *Controller) LoadImage(img []trace.InitLine) { c.ma.LoadImage(img) }

// MiSU returns the Minor Security Unit (nil for non-Dolos schemes).
func (c *Controller) MiSU() *misu.Unit { return c.mi }

// Config returns the configuration in effect.
func (c *Controller) Config() Config { return c.cfg }

// Queue returns the WPQ regardless of scheme — the entry point a
// multi-core cpu.Machine uses to install its occupancy observer.
func (c *Controller) Queue() *wpq.Queue { return c.queue() }

// queue returns the WPQ regardless of scheme.
func (c *Controller) queue() *wpq.Queue {
	if c.mi != nil {
		return c.mi.Queue()
	}
	return c.bq
}

// staleAt reports whether the controller has crashed, or
// crashed-and-recovered, since the caller read c.epoch — every deferred
// completion checks it so events scheduled before a power failure cannot
// touch post-recovery state. Jobs carry the epoch they were submitted in
// in their insert or drain record.
func (c *Controller) staleAt(epoch uint64) bool { return c.crashed || c.epoch != epoch }

// WPQLive returns the current number of live WPQ entries.
func (c *Controller) WPQLive() int { return c.queue().Live() }

// RetryEvents returns the number of WPQ insertion re-try events.
func (c *Controller) RetryEvents() uint64 { return c.cRetryEvents.Value() }

// WriteRequests returns the number of write requests that arrived.
func (c *Controller) WriteRequests() uint64 { return c.cWriteRequests.Value() }

// RetryPerKWR returns retry events per kilo write requests (Table 2).
func (c *Controller) RetryPerKWR() float64 {
	w := c.WriteRequests()
	if w == 0 {
		return 0
	}
	return float64(c.RetryEvents()) / float64(w) * 1000
}
