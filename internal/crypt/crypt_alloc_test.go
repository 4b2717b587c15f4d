package crypt

import "testing"

// The write path computes up to 10 serial MACs and one pad per persisted
// line, so the primitives must stay allocation-free: a single escape per
// call re-inflates GC pressure across every simulated cell. These pins
// are the regression fence for the engine-scratch design (DESIGN.md §12)
// — if a refactor reintroduces a heap path, they fail loudly rather than
// showing up only as a benchmark drift.

func TestLineMACAllocFree(t *testing.T) {
	e := testEngine()
	var ct [BlockSize]byte
	var sink MAC
	allocs := testing.AllocsPerRun(100, func() {
		sink = e.LineMAC(&ct, 0x1000, 7)
	})
	if allocs != 0 {
		t.Fatalf("LineMAC allocates %.1f objects per op, want 0", allocs)
	}
	_ = sink
}

func TestNodeMACAllocFree(t *testing.T) {
	e := testEngine()
	payload := make([]byte, BlockSize)
	var sink MAC
	allocs := testing.AllocsPerRun(100, func() {
		sink = e.NodeMAC(payload, 3)
	})
	if allocs != 0 {
		t.Fatalf("NodeMAC allocates %.1f objects per op, want 0", allocs)
	}
	_ = sink
}

// The Mi-SU's Full-WPQ group MAC is the largest payload in the model;
// it must still fit the engine scratch.
func TestNodeMACGroupPayloadAllocFree(t *testing.T) {
	e := testEngine()
	payload := make([]byte, 576)
	var sink MAC
	allocs := testing.AllocsPerRun(100, func() {
		sink = e.NodeMAC(payload, 1)
	})
	if allocs != 0 {
		t.Fatalf("NodeMAC(576B) allocates %.1f objects per op, want 0", allocs)
	}
	_ = sink
}

func TestGeneratePadAllocFree(t *testing.T) {
	e := testEngine()
	iv := MakeIV(1, 2, 3)
	var sink Pad
	allocs := testing.AllocsPerRun(100, func() {
		sink = e.GeneratePad(iv)
	})
	if allocs != 0 {
		t.Fatalf("GeneratePad allocates %.1f objects per op, want 0", allocs)
	}
	_ = sink
}

func TestEncryptLineToAllocFree(t *testing.T) {
	e := testEngine()
	var src, dst [BlockSize]byte
	iv := MakeIV(4, 5, 6)
	allocs := testing.AllocsPerRun(100, func() {
		e.EncryptLineTo(&dst, &src, iv)
	})
	if allocs != 0 {
		t.Fatalf("EncryptLineTo allocates %.1f objects per op, want 0", allocs)
	}
}
