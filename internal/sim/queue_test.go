package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
)

// boxedQueue is the first event queue — container/heap over *scheduled
// with `any` boxing — kept here as the reference the pending list must
// match event for event, and as the baseline for the allocation
// benchmarks below.
type boxedQueue []*scheduled

func (q boxedQueue) Len() int { return len(q) }

func (q boxedQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q boxedQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *boxedQueue) Push(x any) { *q = append(*q, x.(*scheduled)) }

func (q *boxedQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// checkDeadSlots fails unless every slot of l's backing array outside
// its live events is zeroed, so no dispatched closure stays reachable.
func checkDeadSlots(t *testing.T, l *eventList) {
	t.Helper()
	for i, ev := range l.a[:cap(l.a)] {
		if (i < l.head || i >= len(l.a)) && ev.fn != nil {
			t.Fatalf("dead slot %d (head %d, len %d, cap %d) still references its closure",
				i, l.head, len(l.a), cap(l.a))
		}
	}
}

// TestQueueMatchesBoxedReference drives the pending list and the
// container/heap reference with the same randomized schedule of pushes
// and interleaved pops and asserts the pop sequences are identical. As
// in the engine, no event is earlier than the last one popped. Each
// trial fills the list to a depth (up to 5000, past the deepest measured
// queue), hovers around it and drains it, with delays of 0 (a tie with
// the running event), 1–2 cycles and up to 2^13 cycles, and ties with
// pending events.
func TestQueueMatchesBoxedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fn := func() {}
	for trial := 0; trial < 40; trial++ {
		var q eventList
		var ref boxedQueue
		var seq uint64
		var clock Cycle
		depth := []int{16, 128, 1024, 5000}[trial%4]
		push := func() {
			seq++
			at := clock + Cycle(rng.Intn(1<<13+1))
			switch r := rng.Intn(10); {
			case r < 3:
				at = clock
			case r < 5 && q.len() > 0:
				at = q.a[q.head+rng.Intn(q.len())].at
			case r < 6:
				at = clock + Cycle(1+rng.Intn(2))
			}
			ev := scheduled{at: at, seq: seq, fn: fn}
			q.push(ev)
			heap.Push(&ref, &scheduled{at: at, seq: seq})
		}
		pop := func() {
			got := q.pop()
			want := heap.Pop(&ref).(*scheduled)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: pop (at=%d seq=%d), reference (at=%d seq=%d)",
					trial, got.at, got.seq, want.at, want.seq)
			}
			clock = got.at
		}
		for q.len() < depth {
			push()
		}
		for op := 0; op < 4*depth || q.len() > 0; op++ {
			if op < 4*depth && (q.len() == 0 || rng.Intn(2) == 0) {
				push()
			} else {
				pop()
			}
			if q.len() != ref.Len() {
				t.Fatalf("trial %d: %d pending, reference %d", trial, q.len(), ref.Len())
			}
			if op%64 == 0 {
				checkDeadSlots(t, &q)
			}
		}
		checkDeadSlots(t, &q)
	}
}

// TestQueuePopReleasesEvent guards the fn-reference release: a popped
// slot, and the tail a compaction vacates, must be zeroed so completed
// events are collectable.
func TestQueuePopReleasesEvent(t *testing.T) {
	var q eventList
	for i := 1; i <= 4; i++ {
		q.push(scheduled{at: Cycle(i), seq: uint64(i), fn: func() {}})
	}
	q.pop()
	if q.a[q.head-1].fn != nil {
		t.Fatal("popped slot still references its event closure")
	}
	q.pop()
	for len(q.a) < cap(q.a) {
		q.push(scheduled{at: 100, seq: uint64(len(q.a) + 10), fn: func() {}})
	}
	c := cap(q.a)
	q.push(scheduled{at: 200, seq: 1000, fn: func() {}})
	if q.head != 0 || cap(q.a) != c {
		t.Fatalf("full list with a half-dead prefix did not compact: head %d, cap %d → %d", q.head, c, cap(q.a))
	}
	checkDeadSlots(t, &q)
}

// TestQueueCapacityBounded pins that the pending list's backing array
// stays within a small multiple of the peak number of pending events
// while the queue never empties, for FIFO traffic (every insert at the
// tail), the measured mix (long delays with 1–2-cycle yields, inserts
// near the head) and zero-delay continuations. The array grows only
// while more than half of it is live, to at most twice its size plus
// the allocator's size-class rounding, so 5× the peak is a safe bound.
func TestQueueCapacityBounded(t *testing.T) {
	for _, mix := range []struct {
		name  string
		delay func(i int) Cycle
	}{
		{"fifo", func(int) Cycle { return 4096 }},
		{"measured", measuredDelay},
		{"same-cycle", func(i int) Cycle { return Cycle(i%3) * 4096 }},
	} {
		for _, depth := range []int{4, 64, 1000} {
			e := NewEngine()
			peak, i := 0, 0
			var fire func()
			fire = func() {
				i++
				e.After(mix.delay(i), fire)
				if p := e.Pending(); p > peak {
					peak = p
				}
			}
			for k := 0; k < depth; k++ {
				e.After(mix.delay(k), fire)
			}
			e.Run(100000)
			if c := cap(e.queue.a); c > 5*peak {
				t.Errorf("%s, depth %d: backing array of %d slots for at most %d pending events", mix.name, depth, c, peak)
			}
		}
	}
}

// ringLen is the number of jobs in a ring.
func ringLen(r *jobRing) int { return len(r.a) - r.head }

// TestJobRingsBounded pins that a Server, a PipeServer and a Delay that
// never go idle keep their rings (and the Server its wait queue) within
// a small multiple of their peak occupancy: each stays busy for 100,000
// jobs with a few jobs in flight or waiting.
func TestJobRingsBounded(t *testing.T) {
	const jobs = 100000
	e := NewEngine()
	p := NewPipeServer(e, "pipe", 1)
	s := NewServer(e, "server")
	d := NewDelay(e)
	var peakPipe, peakInflight, peakQueue, peakDelay int
	// Three jobs of backlog keep the server busy throughout.
	for k := 0; k < 3; k++ {
		s.Submit(10, nil, 0)
	}
	n := 0
	var tick func()
	tick = func() {
		n++
		p.Submit(4, nil, 0)
		d.After(4, nil, 0)
		if n%10 == 0 {
			s.Submit(10, nil, 0)
		}
		peakPipe = max(peakPipe, ringLen(&p.pending))
		peakDelay = max(peakDelay, ringLen(&d.ring))
		peakInflight = max(peakInflight, ringLen(&s.inflight))
		peakQueue = max(peakQueue, s.QueueLen())
		if n < jobs {
			e.After(1, tick)
		}
	}
	e.At(0, tick)
	e.Run(0)
	for _, c := range []struct {
		name      string
		cap, peak int
	}{
		{"PipeServer ring", cap(p.pending.a), peakPipe},
		{"Delay ring", cap(d.ring.a), peakDelay},
		{"Server ring", cap(s.inflight.a), peakInflight},
		{"Server queue", cap(s.queue), peakQueue},
	} {
		if c.peak == 0 || c.cap > 5*c.peak+8 {
			t.Errorf("%s: backing array of %d slots for a peak of %d jobs", c.name, c.cap, c.peak)
		}
	}
}

// diffEngine is what TestEngineMatchesReference drives: the Engine and
// the heap-and-ring refEngine.
type diffEngine interface {
	Now() Cycle
	Processed() uint64
	Pending() int
	At(Cycle, Event)
	After(Cycle, Event)
	Advance(Cycle) bool
	Run(uint64) uint64
	RunUntil(Cycle) uint64
	lastSeq() uint64
}

func (e *Engine) lastSeq() uint64 { return e.seq }

// splitmix is the SplitMix64 finalizer: each event draws its behaviour
// from its own id through it, so both engines see the same program as
// long as they dispatch in the same order.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// diffDelay maps a random word to a delay: 0 (an event at the current
// cycle) three times in ten, a 1–2-cycle yield twice, a short delay
// once, and four times 2^10 to 2^13 cycles.
func diffDelay(x uint64) Cycle {
	switch x % 10 {
	case 0, 1, 2:
		return 0
	case 3, 4:
		return Cycle(1 + x>>8%2)
	case 5:
		return Cycle(3 + x>>8%62)
	}
	return Cycle(1<<10 + x>>8%(1<<13-1<<10+1))
}

// diffProgram is one random event program run on one engine. Every
// event logs its dispatch, schedules up to three children through At or
// After and, every other time, a tail continuation, which it first
// tries to dispatch in place through Advance. Spawning stops after
// limit events.
type diffProgram struct {
	e        diffEngine
	seed     uint64
	ids      int
	limit    int
	log      []dispatch
	advanced int
}

func (r *diffProgram) spawn(delay Cycle, viaAt bool) {
	id := r.ids
	r.ids++
	var seq uint64
	fn := func() { r.fire(id, seq) }
	if viaAt {
		r.e.At(r.e.Now()+delay, fn)
	} else {
		r.e.After(delay, fn)
	}
	seq = r.e.lastSeq()
}

func (r *diffProgram) fire(id int, seq uint64) {
	for {
		r.log = append(r.log, dispatch{who: id, at: r.e.Now(), seq: seq})
		x := splitmix(r.seed<<32 ^ uint64(id))
		for k := x % 4; k > 0 && r.ids < r.limit; k-- {
			x = splitmix(x)
			r.spawn(diffDelay(x), x>>40&1 == 0)
		}
		x = splitmix(x)
		if x%2 == 0 || r.ids >= r.limit {
			return
		}
		delay := diffDelay(splitmix(x))
		if !r.e.Advance(delay) {
			r.spawn(delay, false)
			return
		}
		r.advanced++
		id = r.ids
		r.ids++
		seq = r.e.lastSeq()
	}
}

// TestEngineMatchesReference runs random At/After programs on the
// Engine and on refEngine, the heap-and-ring engine it replaced, and
// requires the same dispatch sequence — who ran, at which cycle, with
// which sequence number — and the same clock, event count, pending
// count and sequence counter after every call. The programs mix events
// at the current cycle, 1–2-cycle yields and delays up to 2^13 cycles,
// continuations dispatched in place through Advance, and, in half the
// trials, an initial burst that holds over 4096 events pending. They
// are driven by Run(0), chunked Run(n) and RunUntil deadlines.
func TestEngineMatchesReference(t *testing.T) {
	maxPending, advanced := 0, 0
	for trial := 0; trial < 24; trial++ {
		burst := []int{1, 64, 5000}[trial%3]
		engines := []*diffProgram{
			{e: NewEngine(), seed: uint64(trial), limit: burst + 6000},
			{e: &refEngine{}, seed: uint64(trial), limit: burst + 6000},
		}
		for _, r := range engines {
			rng := rand.New(rand.NewSource(int64(trial)))
			for k := 0; k < burst; k++ {
				r.spawn(Cycle(rng.Intn(1<<13)), k%2 == 0)
			}
		}
		maxPending = max(maxPending, engines[0].e.Pending())
		driver := rand.New(rand.NewSource(int64(trial)))
		for call := 0; engines[0].e.Pending() > 0 || engines[1].e.Pending() > 0; call++ {
			mode, n, d := driver.Intn(3), uint64(driver.Intn(50)+1), Cycle(driver.Intn(1<<12))
			if trial%4 == 0 {
				mode = 0
			}
			var got [2]uint64
			for k, r := range engines {
				switch mode {
				case 0:
					got[k] = r.e.Run(0)
				case 1:
					got[k] = r.e.Run(n)
				default:
					got[k] = r.e.RunUntil(r.e.Now() + d)
				}
			}
			a, b := engines[0], engines[1]
			if got[0] != got[1] || a.e.Now() != b.e.Now() || a.e.Processed() != b.e.Processed() ||
				a.e.Pending() != b.e.Pending() || a.e.lastSeq() != b.e.lastSeq() || len(a.log) != len(b.log) {
				t.Fatalf("trial %d, call %d (mode %d): ran %d/%d, now %d/%d, processed %d/%d, pending %d/%d, seq %d/%d, logged %d/%d",
					trial, call, mode, got[0], got[1], a.e.Now(), b.e.Now(), a.e.Processed(), b.e.Processed(),
					a.e.Pending(), b.e.Pending(), a.e.lastSeq(), b.e.lastSeq(), len(a.log), len(b.log))
			}
		}
		if !reflect.DeepEqual(engines[0].log, engines[1].log) {
			t.Fatalf("trial %d: dispatch sequence differs from the reference engine's", trial)
		}
		if engines[0].advanced != engines[1].advanced {
			t.Fatalf("trial %d: %d in-place dispatches, reference %d", trial, engines[0].advanced, engines[1].advanced)
		}
		advanced += engines[0].advanced
	}
	if maxPending < 4096 || advanced == 0 {
		t.Fatalf("programs reached %d pending events and %d in-place dispatches: the test exercises too little",
			maxPending, advanced)
	}
}

// BenchmarkQueueTypedPushPop measures the pending list on the same
// schedule as the boxed reference below: allocations per event must be
// (amortized) zero.
func BenchmarkQueueTypedPushPop(b *testing.B) {
	var q eventList
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.push(scheduled{at: Cycle(i % 1024), seq: uint64(i)})
		if q.len() >= 1024 {
			q.pop()
		}
	}
}

// BenchmarkQueueBoxedPushPop measures the container/heap reference: one
// *scheduled allocation per event plus interface boxing.
func BenchmarkQueueBoxedPushPop(b *testing.B) {
	var q boxedQueue
	heap.Init(&q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heap.Push(&q, &scheduled{at: Cycle(i % 1024), seq: uint64(i)})
		if q.Len() >= 1024 {
			heap.Pop(&q)
		}
	}
}
