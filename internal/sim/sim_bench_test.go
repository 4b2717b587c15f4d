package sim

import "testing"

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	var next func()
	n := 0
	next = func() {
		n++
		if n < b.N {
			e.After(1, next)
		}
	}
	e.At(0, next)
	b.ResetTimer()
	e.Run(0)
}

func BenchmarkEngineFanOut(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(Cycle(i%1000), func() {})
	}
	b.ResetTimer()
	e.Run(0)
}

func BenchmarkServerSubmit(b *testing.B) {
	e := NewEngine()
	s := NewServer(e, "b")
	for i := 0; i < b.N; i++ {
		s.Submit(1, nil, 0)
	}
	b.ResetTimer()
	e.Run(0)
}

func BenchmarkPipeServerSubmit(b *testing.B) {
	e := NewEngine()
	p := NewPipeServer(e, "b", 1)
	for i := 0; i < b.N; i++ {
		p.Submit(10, nil, 0)
	}
	b.ResetTimer()
	e.Run(0)
}
