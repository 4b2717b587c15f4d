package cpu

import (
	"fmt"

	"dolos/internal/controller"
	"dolos/internal/sim"
	"dolos/internal/stats"
)

// Request kinds multiplexed over the controller command port.
const (
	reqRead uint8 = iota
	reqPersist
	reqEvict
)

// request is one core's pending memory-controller command.
type request struct {
	at   sim.Cycle // arrival cycle
	core int
	seq  uint64 // per-core issue sequence
	kind uint8
	addr uint64
	data *[64]byte   // persist/evict payload, by reference
	done func()      // persist acceptance
	fill sim.Handler // read completion, called with arg
	arg  uint64
}

// reqLess is the arbiter's deterministic total order: earlier arrival
// first, ties broken by core index, then by per-core issue sequence.
// The triple is unique per request, so selection never depends on
// storage order and identical runs grant identically.
func reqLess(x, y *request) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.core != y.core {
		return x.core < y.core
	}
	return x.seq < y.seq
}

// arbiter serializes a multi-core machine's reads, persists and
// evictions onto the shared memory controller through one command port
// that grants at most one request per cycle. Contention for the
// controller's WPQ, counter cache and security engines then unfolds
// inside the controller exactly as on one core — the arbiter only fixes
// *order*, and it fixes it deterministically (see reqLess). A one-core
// machine has no arbiter (see Machine).
type arbiter struct {
	eng  *sim.Engine
	ctrl *controller.Controller

	pending  []request
	nextSeq  []uint64
	nextFree sim.Cycle
	armed    bool
	grantFn  func()

	// Per-core fairness counters, interned in the controller's stats
	// set only on a multi-core machine, so a one-core record's metrics
	// snapshot (pinned by TestGoldenRecords) carries none of them.
	grants []*stats.Counter
	waits  []*stats.Counter
}

func newArbiter(eng *sim.Engine, ctrl *controller.Controller, cores int) *arbiter {
	a := &arbiter{
		eng:     eng,
		ctrl:    ctrl,
		nextSeq: make([]uint64, cores),
	}
	st := ctrl.Stats()
	for i := 0; i < cores; i++ {
		a.grants = append(a.grants, st.Counter(fmt.Sprintf("arb.core%d.grants", i)))
		a.waits = append(a.waits, st.Counter(fmt.Sprintf("arb.core%d.wait_cycles", i)))
	}
	a.grantFn = a.grant
	return a
}

// submit enqueues a request and arms the grant loop.
func (a *arbiter) submit(r request) {
	r.at = a.eng.Now()
	r.seq = a.nextSeq[r.core]
	a.nextSeq[r.core]++
	a.pending = append(a.pending, r)
	if !a.armed {
		a.armed = true
		at := r.at
		if at < a.nextFree {
			at = a.nextFree
		}
		a.eng.At(at, a.grantFn)
	}
}

// grant forwards the (at, core, seq)-minimal pending request to the
// controller and re-arms one cycle later while work remains.
func (a *arbiter) grant() {
	best := 0
	for i := 1; i < len(a.pending); i++ {
		if reqLess(&a.pending[i], &a.pending[best]) {
			best = i
		}
	}
	r := a.pending[best]
	last := len(a.pending) - 1
	a.pending[best] = a.pending[last]
	a.pending[last] = request{} // release the done closure
	a.pending = a.pending[:last]

	now := a.eng.Now()
	a.grants[r.core].Inc()
	a.waits[r.core].Add(uint64(now - r.at))
	a.nextFree = now + 1
	if len(a.pending) > 0 {
		a.eng.At(a.nextFree, a.grantFn)
	} else {
		a.armed = false
	}

	switch r.kind {
	case reqRead:
		a.ctrl.ReadLine(r.addr, r.fill, r.arg)
	case reqPersist:
		a.ctrl.PersistWrite(r.addr, r.data, r.done)
	case reqEvict:
		a.ctrl.EvictWrite(r.addr, r.data)
	}
}
