package sim

import (
	"testing"
	"testing/quick"
)

func TestPipeServerOverlap(t *testing.T) {
	e := NewEngine()
	p := NewPipeServer(e, "pipe", 100)
	var spans [][2]Cycle
	p.SetJobHook(func(_ string, start, end Cycle) { spans = append(spans, [2]Cycle{start, end}) })
	for i := 0; i < 3; i++ {
		p.Submit(1000, nil, 0)
	}
	e.Run(0)
	if len(spans) != 3 {
		t.Fatalf("completed %d", len(spans))
	}
	for i, sp := range spans {
		want := [2]Cycle{Cycle(i * 100), Cycle(i*100 + 1000)}
		if sp != want {
			t.Fatalf("job %d span %v, want %v (pipelined)", i, sp, want)
		}
	}
}

func TestPipeServerIdleRestart(t *testing.T) {
	e := NewEngine()
	p := NewPipeServer(e, "pipe", 100)
	p.Submit(10, nil, 0)
	e.Run(0)
	var start Cycle
	p.SetJobHook(func(_ string, s, _ Cycle) { start = s })
	e.At(5000, func() { p.Submit(10, nil, 0) })
	e.Run(0)
	if start != 5000 {
		t.Fatalf("idle restart started at %d, want 5000", start)
	}
}

func TestPipeServerNextStart(t *testing.T) {
	e := NewEngine()
	p := NewPipeServer(e, "pipe", 160)
	if p.NextStart() != 0 {
		t.Fatalf("idle NextStart = %d", p.NextStart())
	}
	p.Submit(1000, nil, 0)
	if p.NextStart() != 160 {
		t.Fatalf("NextStart after one submit = %d, want 160", p.NextStart())
	}
	if p.Jobs() != 1 || p.II() != 160 {
		t.Fatal("accessor values wrong")
	}
}

func TestPipeServerZeroII(t *testing.T) {
	e := NewEngine()
	p := NewPipeServer(e, "pipe", 0)
	if p.II() != 1 {
		t.Fatalf("zero II not clamped: %d", p.II())
	}
}

func TestPipeServerStartSpacingProperty(t *testing.T) {
	// Property: consecutive start times are always >= II apart,
	// regardless of service times.
	f := func(services []uint8) bool {
		e := NewEngine()
		p := NewPipeServer(e, "p", 7)
		var starts []Cycle
		p.SetJobHook(func(_ string, s, _ Cycle) { starts = append(starts, s) })
		for _, sv := range services {
			p.Submit(Cycle(sv), nil, 0)
		}
		e.Run(0)
		seen := map[Cycle]bool{}
		for _, s := range starts {
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return len(starts) == len(services)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
