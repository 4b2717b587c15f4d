package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineFIFOWithinCycle(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

func TestEngineAfterChaining(t *testing.T) {
	e := NewEngine()
	var end Cycle
	e.At(100, func() {
		e.After(50, func() { end = e.Now() })
	})
	e.Run(0)
	if end != 150 {
		t.Fatalf("chained event ran at %d, want 150", end)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		e.After(1, reschedule)
	}
	e.At(0, reschedule)
	n := e.Run(10)
	if n != 10 || count != 10 {
		t.Fatalf("Run(10) executed %d events, handler ran %d times", n, count)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := map[Cycle]bool{}
	for _, c := range []Cycle{10, 20, 30, 40} {
		c := c
		e.At(c, func() { ran[c] = true })
	}
	n := e.RunUntil(25)
	if n != 2 || !ran[10] || !ran[20] || ran[30] {
		t.Fatalf("RunUntil(25): n=%d ran=%v", n, ran)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %d after RunUntil(25)", e.Now())
	}
	e.Run(0)
	if !ran[30] || !ran[40] {
		t.Fatalf("remaining events did not run: %v", ran)
	}
}

func TestEngineTimeMonotonic(t *testing.T) {
	// Property: regardless of the (bounded) delays scheduled, observed
	// event times never decrease.
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Cycle(0)
		ok := true
		for _, d := range delays {
			d := Cycle(d)
			e.After(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run(0)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerSerializes(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "test")
	var spans [][2]Cycle
	s.SetJobHook(func(_ string, start, end Cycle) { spans = append(spans, [2]Cycle{start, end}) })
	for i := 0; i < 3; i++ {
		s.Submit(100, nil, 0)
	}
	e.Run(0)
	if len(spans) != 3 {
		t.Fatalf("completed %d jobs, want 3", len(spans))
	}
	for i, sp := range spans {
		want := [2]Cycle{Cycle(i * 100), Cycle((i + 1) * 100)}
		if sp != want {
			t.Fatalf("job %d span %v, want %v", i, sp, want)
		}
	}
	if s.Jobs() != 3 || s.BusyCycles() != 300 {
		t.Fatalf("stats: jobs=%d busy=%d", s.Jobs(), s.BusyCycles())
	}
}

func TestServerFreeAt(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "test")
	s.Submit(50, nil, 0)
	s.Submit(70, nil, 0)
	if got := s.FreeAt(); got != 120 {
		t.Fatalf("FreeAt = %d, want 120", got)
	}
	e.Run(0)
	if got := s.FreeAt(); got != e.Now() {
		t.Fatalf("idle FreeAt = %d, want now=%d", got, e.Now())
	}
}

func TestServerLateSubmission(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "test")
	var span [2]Cycle
	s.SetJobHook(func(_ string, start, end Cycle) { span = [2]Cycle{start, end} })
	e.At(500, func() { s.Submit(10, nil, 0) })
	e.Run(0)
	if span != [2]Cycle{500, 510} {
		t.Fatalf("span %v, want [500 510]", span)
	}
}

func TestServerNoOverlapProperty(t *testing.T) {
	// Property: service intervals of a single server never overlap and
	// are in FIFO order.
	f := func(services []uint8) bool {
		e := NewEngine()
		s := NewServer(e, "p")
		var spans [][2]Cycle
		s.SetJobHook(func(_ string, start, end Cycle) { spans = append(spans, [2]Cycle{start, end}) })
		for _, sv := range services {
			s.Submit(Cycle(sv)+1, nil, 0)
		}
		e.Run(0)
		if len(spans) != len(services) {
			return false
		}
		for i := 1; i < len(spans); i++ {
			if spans[i][0] < spans[i-1][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
