package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// dispatch is one dispatched event as a program observes it: who ran,
// at which cycle, and the scheduling sequence number its event took.
type dispatch struct {
	who int
	at  Cycle
	seq uint64
}

// program is a random mix of tail continuations and queued events: each
// actor is a chain of steps, and each step queues some side events
// before it yields for a delay. With inPlace the chain's continuation
// goes through Advance, otherwise always through After.
type program struct {
	actors [][]step
}

type step struct {
	delay Cycle
	sides []Cycle // delays of side events queued before the yield
}

func randomProgram(rng *rand.Rand) program {
	var p program
	for a := rng.Intn(4) + 1; a > 0; a-- {
		steps := make([]step, rng.Intn(40))
		for i := range steps {
			steps[i].delay = Cycle(rng.Intn(6))
			if rng.Intn(8) == 0 {
				steps[i].delay = Cycle(rng.Intn(200))
			}
			for s := rng.Intn(3); s > 0; s-- {
				steps[i].sides = append(steps[i].sides, Cycle(rng.Intn(12)))
			}
		}
		p.actors = append(p.actors, steps)
	}
	return p
}

// execution runs a program on one engine and records what it observes.
type execution struct {
	e        *Engine
	inPlace  bool
	log      []dispatch
	sides    int // side events scheduled
	advanced int // continuations dispatched in place
}

// start schedules every actor's first step at cycle 0.
func (x *execution) start(p program) {
	for id, steps := range p.actors {
		x.startActor(id, steps)
	}
}

func (x *execution) startActor(id int, steps []step) {
	e := x.e
	k, seq := 0, uint64(0)
	var run func()
	run = func() {
		for {
			x.log = append(x.log, dispatch{who: id, at: e.Now(), seq: seq})
			if k == len(steps) {
				return
			}
			st := steps[k]
			k++
			for _, d := range st.sides {
				x.sides++
				side, sideSeq := -x.sides, uint64(0)
				e.After(d, func() { x.log = append(x.log, dispatch{who: side, at: e.Now(), seq: sideSeq}) })
				sideSeq = e.seq
			}
			if x.inPlace && e.Advance(st.delay) {
				x.advanced++
				seq = e.seq
				continue
			}
			e.After(st.delay, run)
			seq = e.seq
			return
		}
	}
	e.After(0, run)
	seq = e.seq
}

// TestAdvanceMatchesQueued drives random programs with every
// continuation queued and with in-place dispatch, under Run(0), chunked
// Run(n) and stepped RunUntil, and requires the same dispatch sequence,
// (cycle, sequence number) for every event, and the same clock and
// event count. Run(n) must return exactly n while events remain, and
// RunUntil(d) must dispatch nothing past d.
func TestAdvanceMatchesQueued(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	totalAdvanced := 0
	for trial := 0; trial < 300; trial++ {
		p := randomProgram(rng)
		ref := &execution{e: NewEngine()}
		ref.start(p)
		ref.e.Run(0)
		if ref.advanced != 0 {
			t.Fatal("queued reference advanced in place")
		}

		drivers := []struct {
			name string
			run  func(x *execution)
		}{
			{"Run(0)", func(x *execution) { x.e.Run(0) }},
			{"Run(n)", func(x *execution) {
				for {
					n := uint64(rng.Intn(5) + 1)
					before, pending := x.e.Processed(), x.e.Pending()
					got := x.e.Run(n)
					if got != x.e.Processed()-before {
						t.Fatalf("trial %d: Run(%d) returned %d, executed %d", trial, n, got, x.e.Processed()-before)
					}
					if got < n && x.e.Pending() != 0 {
						t.Fatalf("trial %d: Run(%d) stopped after %d with %d pending", trial, n, got, x.e.Pending())
					}
					if got > n {
						t.Fatalf("trial %d: Run(%d) executed %d events", trial, n, got)
					}
					if pending == 0 {
						return
					}
				}
			}},
			{"RunUntil", func(x *execution) {
				for x.e.Pending() > 0 {
					deadline := x.e.Now() + Cycle(rng.Intn(8))
					seen := len(x.log)
					before := x.e.Processed()
					got := x.e.RunUntil(deadline)
					if got != x.e.Processed()-before {
						t.Fatalf("trial %d: RunUntil returned %d, executed %d", trial, got, x.e.Processed()-before)
					}
					for _, d := range x.log[seen:] {
						if d.at > deadline {
							t.Fatalf("trial %d: event at %d ran under RunUntil(%d)", trial, d.at, deadline)
						}
					}
					if x.e.Now() != deadline {
						t.Fatalf("trial %d: RunUntil(%d) left the clock at %d", trial, deadline, x.e.Now())
					}
				}
			}},
		}
		for _, d := range drivers {
			x := &execution{e: NewEngine(), inPlace: true}
			x.start(p)
			d.run(x)
			totalAdvanced += x.advanced
			if !reflect.DeepEqual(x.log, ref.log) {
				t.Fatalf("trial %d, %s: dispatch sequence differs from the queued run", trial, d.name)
			}
			if d.name != "RunUntil" && x.e.Now() != ref.e.Now() {
				t.Fatalf("trial %d, %s: Now %d, queued run %d", trial, d.name, x.e.Now(), ref.e.Now())
			}
			if x.e.Processed() != ref.e.Processed() || x.e.seq != ref.e.seq {
				t.Fatalf("trial %d, %s: processed %d seq %d, queued run %d and %d",
					trial, d.name, x.e.Processed(), x.e.seq, ref.e.Processed(), ref.e.seq)
			}
		}
	}
	if totalAdvanced == 0 {
		t.Fatal("no continuation was dispatched in place: the test exercises nothing")
	}
}

// TestAdvanceDeclinesOutsideRun pins that Advance dispatches nothing in
// place when no Run or RunUntil is running: a bare Step runs exactly one
// event.
func TestAdvanceDeclinesOutsideRun(t *testing.T) {
	e := NewEngine()
	if e.Advance(0) {
		t.Fatal("Advance succeeded on an idle engine")
	}
	var advanced bool
	e.At(5, func() { advanced = e.Advance(3) })
	if !e.Step() || advanced || e.Now() != 5 || e.Processed() != 1 {
		t.Fatalf("bare Step: advanced %v, now %d, processed %d", advanced, e.Now(), e.Processed())
	}
}

// TestAdvanceBounds pins Advance's refusals inside a Run: an event
// pending at the current cycle, a queued event at or before the target
// cycle, the Run's event limit and RunUntil's deadline.
func TestAdvanceBounds(t *testing.T) {
	cases := []struct {
		name  string
		setup func(e *Engine)
		run   func(e *Engine)
		delay Cycle
		want  bool
	}{
		{"free", nil, func(e *Engine) { e.Run(0) }, 10, true},
		{"same-cycle event pending", func(e *Engine) { e.At(0, func() {}) }, func(e *Engine) { e.Run(0) }, 10, false},
		{"queued event at the target", func(e *Engine) { e.At(10, func() {}) }, func(e *Engine) { e.Run(0) }, 10, false},
		{"queued event after the target", func(e *Engine) { e.At(11, func() {}) }, func(e *Engine) { e.Run(0) }, 10, true},
		{"event limit reached", nil, func(e *Engine) { e.Run(1) }, 10, false},
		{"within the event limit", nil, func(e *Engine) { e.Run(2) }, 10, true},
		{"past the deadline", nil, func(e *Engine) { e.RunUntil(9) }, 10, false},
		{"at the deadline", nil, func(e *Engine) { e.RunUntil(10) }, 10, true},
	}
	for _, c := range cases {
		e := NewEngine()
		var got bool
		e.At(0, func() { got = e.Advance(c.delay) })
		if c.setup != nil {
			c.setup(e)
		}
		c.run(e)
		if got != c.want {
			t.Errorf("%s: Advance = %v, want %v", c.name, got, c.want)
		}
	}
}
