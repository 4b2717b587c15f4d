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

// before is the engine's one dispatch order: by cycle, then by
// scheduling sequence. seq is unique, so it is a strict total order and
// the dispatch sequence is independent of how the pending events are
// stored.
func (s scheduled) before(o scheduled) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

// eventList holds the pending events in one array sorted by before:
// the live ones are a[head:], the next to dispatch first, and the dead
// slots below head are zeroed so dispatched closures are collectable.
// A new event has the highest seq yet, so it lands behind every event
// at or before its cycle: at the tail for FIFO traffic, at the head for
// the earliest continuation, else where a binary search puts it. push
// shifts the shorter side to open the slot, into the dead prefix or up
// at the tail.
type eventList struct {
	a    []scheduled
	head int
}

func (l *eventList) len() int { return len(l.a) - l.head }

// next returns the cycle of the next event to dispatch, if any.
func (l *eventList) next() (Cycle, bool) {
	if l.head == len(l.a) {
		return 0, false
	}
	return l.a[l.head].at, true
}

func (l *eventList) push(ev scheduled) {
	a, head := l.a, l.head
	n := len(a)
	// i is the first live event ev sorts before, n when none does.
	i := n
	if n > head && ev.before(a[n-1]) {
		i = head
		if !ev.before(a[head]) {
			lo, hi := head+1, n-1
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if ev.before(a[m]) {
					hi = m
				} else {
					lo = m + 1
				}
			}
			i = lo
		}
	}
	if head > 0 && i-head < n-i {
		copy(a[head-1:], a[head:i])
		a[i-1] = ev
		l.head = head - 1
		return
	}
	a, l.head = Compact(a, head)
	i -= head - l.head
	n = len(a)
	a = append(a, ev)
	if i < n {
		copy(a[i+1:], a[i:n])
		a[i] = ev
	}
	l.a = a
}

func (l *eventList) pop() scheduled {
	ev := l.a[l.head]
	l.a[l.head] = scheduled{} // release the fn reference for the GC
	l.head++
	if l.head == len(l.a) {
		l.a = l.a[:0]
		l.head = 0
	}
	return ev
}

// Compact prepares a head-indexed array (live elements a[head:], dead
// prefix cleared) for an append: when it is full and at least half dead,
// it moves the live part to the base and clears the vacated tail. The
// array then grows only while over half of it is live, and each element
// moves O(1) times per append amortized. It returns the array and head.
func Compact[T any](a []T, head int) ([]T, int) {
	if head == 0 || len(a) < cap(a) || 2*head < len(a) {
		return a, head
	}
	n := copy(a, a[head:])
	clear(a[n:])
	return a[:n], 0
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
	queue  eventList
	events uint64
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
func (e *Engine) Pending() int { return e.queue.len() }

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
	e.queue.push(scheduled{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) { e.At(e.now+delay, fn) }

// Step executes the next event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.queue.len() == 0 {
		return false
	}
	ev := e.queue.pop()
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
// dispatched: every pending event is strictly later than now+delay (one
// at that very cycle is older, so it would go first). It also stays
// within the running Run's event limit and RunUntil's deadline, and
// outside Run and RunUntil (a bare Step) it always declines. On false
// nothing changed, and the caller schedules the continuation with After.
//
// Only a continuation that is the last thing its event does may be
// dispatched in place: code that runs after it returns would otherwise
// run at the advanced clock.
func (e *Engine) Advance(delay Cycle) bool {
	at := e.now + delay
	if e.events >= e.bounds.limit || at > e.bounds.deadline {
		return false
	}
	if next, ok := e.queue.next(); ok && next <= at {
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
		if next, ok := e.queue.next(); !ok || next > deadline {
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
