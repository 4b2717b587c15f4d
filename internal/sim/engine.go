// Package sim provides a deterministic discrete-event simulation engine
// with a cycle-granular clock. All timing in the Dolos model is expressed
// in CPU cycles at 4 GHz (1 ns = 4 cycles).
package sim

import "fmt"

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle uint64

// CyclesPerNanosecond converts wall time to cycles for the 4 GHz core
// configuration used throughout the paper's evaluation (Table 1).
const CyclesPerNanosecond = 4

// Event is a callback scheduled to run at a particular cycle.
type Event func()

type scheduled struct {
	at  Cycle
	seq uint64 // tie-breaker: FIFO among events at the same cycle
	fn  Event
}

// before is the queue's strict total order: by cycle, then by scheduling
// sequence. seq is unique, so any correct heap pops the exact same
// sequence — dispatch order is independent of the heap's internal shape.
func (s scheduled) before(o scheduled) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

// eventQueue is a 4-ary min-heap of scheduled events stored by value.
// Compared to the earlier container/heap implementation it performs no
// per-event allocation (events were boxed as *scheduled and passed
// through `any`) and does fewer cache-missing compares per pop: a 4-ary
// heap is half the depth of a binary one, and the four children share
// cache lines. The heap property is the only invariant; the dispatch
// order is fully determined by scheduled.before.
type eventQueue struct {
	a []scheduled
}

const heapArity = 4

func (q *eventQueue) len() int { return len(q.a) }

func (q *eventQueue) push(ev scheduled) {
	q.a = append(q.a, ev)
	i := len(q.a) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !q.a[i].before(q.a[parent]) {
			break
		}
		q.a[i], q.a[parent] = q.a[parent], q.a[i]
		i = parent
	}
}

func (q *eventQueue) pop() scheduled {
	top := q.a[0]
	n := len(q.a) - 1
	q.a[0] = q.a[n]
	q.a[n] = scheduled{} // release the fn reference for the GC
	q.a = q.a[:n]
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.a[c].before(q.a[min]) {
				min = c
			}
		}
		if !q.a[min].before(q.a[i]) {
			break
		}
		q.a[i], q.a[min] = q.a[min], q.a[i]
		i = min
	}
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine. Engines are not safe for concurrent use:
// the simulated system is single-clock-domain by design, matching the
// single memory controller modeled in the paper. Separate engines (one
// per simulated system) are fully independent — there is no package
// state — so distinct systems may run on distinct goroutines, which is
// what the experiment layer's parallel executor does.
type Engine struct {
	now    Cycle
	seq    uint64
	queue  eventQueue
	events uint64
	// nowQ is the FIFO of events scheduled for the current cycle — the
	// commonest case (zero-latency continuations) — which skip the heap:
	// O(1) ring append/pop instead of a sift per push and pop. Every
	// entry has at == now: the clock only advances once nowQ drains,
	// because a non-empty nowQ means the earliest pending event is at
	// now. Dispatch order is unchanged — Step picks the (at, seq)
	// minimum across the ring head and the heap top, and both structures
	// are (at, seq)-sorted from their heads.
	nowQ    []scheduled
	nowHead int
	// hook, when non-nil, observes every dispatched event (telemetry).
	// It must be purely observational: scheduling events or mutating
	// model state from the hook would perturb the timing model.
	hook func(at Cycle)

	// bounds is the running Run's or RunUntil's limit on in-place
	// dispatch (see Advance); its zero value, outside them, admits none.
	bounds runBounds
}

// runBounds limits in-place dispatch to the running Run or RunUntil:
// limit is the Processed count at which the call stops and deadline the
// last cycle it may reach.
type runBounds struct {
	limit    uint64
	deadline Cycle
}

// NewEngine returns an engine with the clock at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.events }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.queue.len() + len(e.nowQ) - e.nowHead }

// SetHook installs (or with nil removes) the event-dispatch observer.
// The hook runs before each event's callback with the event's cycle.
// The hook is a per-engine field, never package state, so concurrently
// running engines observe independently.
func (e *Engine) SetHook(fn func(at Cycle)) { e.hook = fn }

// At schedules fn to run at the absolute cycle at. Scheduling in the past
// panics: it would violate causality and always indicates a model bug.
func (e *Engine) At(at Cycle, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now %d", at, e.now))
	}
	e.seq++
	if at == e.now {
		e.nowQ = append(e.nowQ, scheduled{at: at, seq: e.seq, fn: fn})
		return
	}
	e.queue.push(scheduled{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) { e.At(e.now+delay, fn) }

// Step executes the next event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	var ev scheduled
	if e.nowHead < len(e.nowQ) &&
		(e.queue.len() == 0 || e.nowQ[e.nowHead].before(e.queue.a[0])) {
		ev = e.nowQ[e.nowHead]
		e.nowQ[e.nowHead] = scheduled{}
		e.nowHead++
		if e.nowHead == len(e.nowQ) {
			e.nowQ = e.nowQ[:0]
			e.nowHead = 0
		}
	} else if e.queue.len() > 0 {
		ev = e.queue.pop()
	} else {
		return false
	}
	e.now = ev.at
	e.events++
	if e.hook != nil {
		e.hook(ev.at)
	}
	ev.fn()
	return true
}

// Advance dispatches the running event's continuation in place: it
// does what After(delay, fn) followed by the dispatch of that event
// would do — take the next scheduling sequence number, move the clock
// to now+delay, count the event and call the hook — and reports true,
// and the caller then runs the continuation itself instead of
// returning. It succeeds only when that event would be the next one
// dispatched: nothing is pending at the current cycle and the earliest
// queued event is strictly later than now+delay. It also stays within
// the running Run's event limit and RunUntil's deadline, and outside
// Run and RunUntil (a bare Step) it always declines. On false nothing
// changed, and the caller schedules the continuation with After.
//
// Only a continuation that is the last thing its event does may be
// dispatched in place: code that runs after it returns would otherwise
// run at the advanced clock.
func (e *Engine) Advance(delay Cycle) bool {
	at := e.now + delay
	if e.events >= e.bounds.limit || at > e.bounds.deadline || e.nowHead < len(e.nowQ) ||
		(e.queue.len() > 0 && e.queue.a[0].at <= at) {
		return false
	}
	e.seq++
	e.now = at
	e.events++
	if e.hook != nil {
		e.hook(at)
	}
	return true
}

// Run executes events until the queue drains or limit events have run.
// A limit of 0 means no limit. It returns the number of events executed
// by this call, those dispatched in place (Advance) included.
func (e *Engine) Run(limit uint64) uint64 {
	start := e.events
	e.bounds = runBounds{limit: ^uint64(0), deadline: ^Cycle(0)}
	if limit != 0 {
		e.bounds.limit = start + limit
	}
	for e.events < e.bounds.limit && e.Step() {
	}
	e.bounds = runBounds{}
	return e.events - start
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued. It returns the number executed,
// those dispatched in place (Advance) included.
func (e *Engine) RunUntil(deadline Cycle) uint64 {
	start := e.events
	e.bounds = runBounds{limit: ^uint64(0), deadline: deadline}
	for {
		// Earliest pending timestamp across the now-ring and the heap.
		next, any := Cycle(0), false
		if e.nowHead < len(e.nowQ) {
			next, any = e.nowQ[e.nowHead].at, true
		} else if e.queue.len() > 0 {
			next, any = e.queue.a[0].at, true
		}
		if !any || next > deadline {
			break
		}
		e.Step()
	}
	e.bounds = runBounds{}
	if e.now < deadline {
		e.now = deadline
	}
	return e.events - start
}
