package sim

import "fmt"

// refEngine is the engine as it was before the sorted pending list: a
// 4-ary min-heap of future events plus a FIFO ring of events at the
// current cycle, with Step taking the (at, seq) minimum of the ring head
// and the heap top. It is kept as the reference TestEngineMatchesReference
// compares the Engine with event for event, and its Advance declines on
// the same conditions as the Engine's.
type refEngine struct {
	now     Cycle
	seq     uint64
	heap    refHeap
	events  uint64
	nowQ    []scheduled
	nowHead int
	bounds  runBounds
}

// refHeap is the 4-ary min-heap the Engine used to keep its future
// events in.
type refHeap struct {
	a []scheduled
}

const refHeapArity = 4

func (q *refHeap) len() int { return len(q.a) }

func (q *refHeap) push(ev scheduled) {
	q.a = append(q.a, ev)
	i := len(q.a) - 1
	for i > 0 {
		parent := (i - 1) / refHeapArity
		if !q.a[i].before(q.a[parent]) {
			break
		}
		q.a[i], q.a[parent] = q.a[parent], q.a[i]
		i = parent
	}
}

func (q *refHeap) pop() scheduled {
	top := q.a[0]
	n := len(q.a) - 1
	q.a[0] = q.a[n]
	q.a[n] = scheduled{}
	q.a = q.a[:n]
	i := 0
	for {
		first := refHeapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + refHeapArity
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

func (e *refEngine) Now() Cycle        { return e.now }
func (e *refEngine) Processed() uint64 { return e.events }
func (e *refEngine) Pending() int      { return e.heap.len() + len(e.nowQ) - e.nowHead }
func (e *refEngine) lastSeq() uint64   { return e.seq }

func (e *refEngine) At(at Cycle, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now %d", at, e.now))
	}
	e.seq++
	if at == e.now {
		e.nowQ = append(e.nowQ, scheduled{at: at, seq: e.seq, fn: fn})
		return
	}
	e.heap.push(scheduled{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) After(delay Cycle, fn Event) { e.At(e.now+delay, fn) }

func (e *refEngine) Step() bool {
	var ev scheduled
	if e.nowHead < len(e.nowQ) &&
		(e.heap.len() == 0 || e.nowQ[e.nowHead].before(e.heap.a[0])) {
		ev = e.nowQ[e.nowHead]
		e.nowQ[e.nowHead] = scheduled{}
		e.nowHead++
		if e.nowHead == len(e.nowQ) {
			e.nowQ = e.nowQ[:0]
			e.nowHead = 0
		}
	} else if e.heap.len() > 0 {
		ev = e.heap.pop()
	} else {
		return false
	}
	e.now = ev.at
	e.events++
	ev.fn()
	return true
}

func (e *refEngine) Advance(delay Cycle) bool {
	at := e.now + delay
	if e.events >= e.bounds.limit || at > e.bounds.deadline || e.nowHead < len(e.nowQ) ||
		(e.heap.len() > 0 && e.heap.a[0].at <= at) {
		return false
	}
	e.seq++
	e.now = at
	e.events++
	return true
}

func (e *refEngine) Run(limit uint64) uint64 {
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

func (e *refEngine) RunUntil(deadline Cycle) uint64 {
	start := e.events
	e.bounds = runBounds{limit: ^uint64(0), deadline: deadline}
	for {
		next, any := Cycle(0), false
		if e.nowHead < len(e.nowQ) {
			next, any = e.nowQ[e.nowHead].at, true
		} else if e.heap.len() > 0 {
			next, any = e.heap.a[0].at, true
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
