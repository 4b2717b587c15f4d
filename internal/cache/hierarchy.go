package cache

import "dolos/internal/sim"

// Table 1 data-cache configuration.
const (
	L1Latency  sim.Cycle = 2
	L2Latency  sim.Cycle = 20
	LLCLatency sim.Cycle = 32

	L1Size  = 32 << 10
	L2Size  = 512 << 10
	LLCSize = 8 << 20

	L1Ways  = 2
	L2Ways  = 8
	LLCWays = 16

	DataLineSize = 64
)

// Backend is the memory system below the LLC: the secure memory
// controller. Reads are timed (done fires when data is available);
// evictions of dirty LLC victims are posted without blocking the core.
type Backend interface {
	// ReadLine performs a timed memory read of addr's line and calls
	// done(arg), if done is non-nil, when the line is available.
	ReadLine(addr uint64, done sim.Handler, arg uint64)
	// EvictLine accepts a dirty LLC victim (a non-persist write).
	EvictLine(addr uint64)
}

// Hierarchy is the three-level write-back data cache hierarchy of Table 1.
type Hierarchy struct {
	eng     *sim.Engine
	l1      *Cache
	l2      *Cache
	llc     *Cache
	backend Backend

	// misses holds each full miss in flight; the row index rides
	// through the tag-check delay and the backend read, and the two
	// handlers, bound once, issue and complete it.
	misses   sim.Slab[miss]
	tagCheck *sim.Delay
	issueFn  sim.Handler
	fillFn   sim.Handler

	memReads uint64
}

// miss is one full miss in flight: its line and the reader's
// completion.
type miss struct {
	addr uint64
	done func()
}

// NewHierarchy builds the Table 1 hierarchy over the given backend.
func NewHierarchy(eng *sim.Engine, backend Backend) *Hierarchy {
	h := &Hierarchy{
		eng:      eng,
		l1:       New("L1", L1Size, L1Ways, DataLineSize),
		l2:       New("L2", L2Size, L2Ways, DataLineSize),
		llc:      New("LLC", LLCSize, LLCWays, DataLineSize),
		backend:  backend,
		tagCheck: sim.NewDelay(eng),
	}
	h.issueFn = h.issueMiss
	h.fillFn = h.fill
	return h
}

// L1 returns the level-1 cache (for statistics).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the level-2 cache (for statistics).
func (h *Hierarchy) L2() *Cache { return h.l2 }

// LLC returns the last-level cache (for statistics).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// MemReads returns how many reads reached the memory controller.
func (h *Hierarchy) MemReads() uint64 { return h.memReads }

// Contains reports whether addr's line is present at any level — a
// side-effect-free probe (no LRU update), used by the prefetcher to
// skip lines already on chip.
func (h *Hierarchy) Contains(addr uint64) bool {
	return h.l1.Contains(addr) || h.l2.Contains(addr) || h.llc.Contains(addr)
}

// handleVictim pushes an eviction from one level into the next; dirty LLC
// victims leave the chip as non-persist writes.
func (h *Hierarchy) fillInto(c *Cache, addr uint64, dirty bool, below func(Victim)) {
	if v, ev := c.Fill(addr, dirty); ev && below != nil {
		below(v)
	}
}

func (h *Hierarchy) l2Victim(v Victim) {
	if v.Dirty {
		h.fillInto(h.llc, v.Addr, true, h.llcVictim)
	}
}

func (h *Hierarchy) llcVictim(v Victim) {
	if v.Dirty {
		h.backend.EvictLine(v.Addr)
	}
}

// Read performs a timed load of addr. done fires when the data is
// available to the core, after the hitting level's latency or, on a full
// miss, after the memory controller returns the line.
func (h *Hierarchy) Read(addr uint64, done func()) {
	if hit, _, _ := probe(h.l1, addr, false); hit {
		h.eng.After(L1Latency, done)
		return
	}
	if hit, _, _ := probe(h.l2, addr, false); hit {
		h.fillInto(h.l1, addr, false, func(v Victim) {
			if v.Dirty {
				h.fillInto(h.l2, v.Addr, true, h.l2Victim)
			}
		})
		h.eng.After(L1Latency+L2Latency, done)
		return
	}
	if hit, _, _ := probe(h.llc, addr, false); hit {
		h.promote(addr, false)
		h.eng.After(L1Latency+L2Latency+LLCLatency, done)
		return
	}
	// Full miss: fetch from the memory controller once every level's
	// tag check has missed.
	h.memReads++
	h.tagCheck.After(L1Latency+L2Latency+LLCLatency, h.issueFn, h.misses.Put(miss{addr: addr, done: done}))
}

// issueMiss sends the miss in row i to the memory controller.
func (h *Hierarchy) issueMiss(i uint64) {
	h.backend.ReadLine(h.misses.At(i).addr, h.fillFn, i)
}

// fill installs the line of the miss in row i, returned by memory, and
// completes the read.
func (h *Hierarchy) fill(i uint64) {
	m := h.misses.Take(i)
	h.installAll(m.addr, false)
	m.done()
}

// probe is Access without double-counting fills across levels: it only
// touches the cache if the line is present.
func probe(c *Cache, addr uint64, write bool) (bool, Victim, bool) {
	if !c.Contains(addr) {
		c.misses++
		return false, Victim{}, false
	}
	return c.Access(addr, write)
}

// promote installs addr into L1 and L2 after an LLC hit.
func (h *Hierarchy) promote(addr uint64, dirty bool) {
	h.fillInto(h.l2, addr, false, h.l2Victim)
	h.fillInto(h.l1, addr, dirty, func(v Victim) {
		if v.Dirty {
			h.fillInto(h.l2, v.Addr, true, h.l2Victim)
		}
	})
}

// installAll installs a line returned by memory into every level.
func (h *Hierarchy) installAll(addr uint64, dirty bool) {
	h.fillInto(h.llc, addr, false, h.llcVictim)
	h.promote(addr, dirty)
}

// Write performs a store to addr. Stores complete into the L1 through the
// store buffer; a write miss allocates without fetching (no-fetch-on-write
// simplification — persistent-workload stores are full-line log/data
// writes, so the fill data is irrelevant to the model). The returned
// latency is the store-buffer drain cost.
func (h *Hierarchy) Write(addr uint64) sim.Cycle {
	if hit, _, _ := probe(h.l1, addr, true); hit {
		return L1Latency
	}
	h.installAll(addr, true)
	return L1Latency
}

// FlushLine writes addr's line back out of the volatile hierarchy (clwb
// semantics: the line stays, clean). It reports whether any level held the
// line dirty, i.e. whether a persist write must be sent to the controller.
func (h *Hierarchy) FlushLine(addr uint64) bool {
	dirty := h.l1.CleanLine(addr)
	dirty = h.l2.CleanLine(addr) || dirty
	dirty = h.llc.CleanLine(addr) || dirty
	return dirty
}

// InvalidateAll models power loss: all volatile cache state vanishes.
func (h *Hierarchy) InvalidateAll() {
	h.l1.InvalidateAll()
	h.l2.InvalidateAll()
	h.llc.InvalidateAll()
}
