package trace

import (
	"testing"

	"dolos/internal/sim"
)

// recordN records n ops whose every field depends on i and salt.
func recordN(r *Recorder, n int, salt byte) {
	for i := 0; i < n; i++ {
		var d [64]byte
		d[0], d[63] = byte(i), salt
		switch i % 4 {
		case 0:
			r.Write(uint64(i)*64, d)
		case 1:
			r.Flush(uint64(i)*64, d)
		case 2:
			r.Compute(sim.Cycle(i))
			r.Read(uint64(i) * 64)
		case 3:
			r.Fence()
		}
	}
}

// wantOps is what recordN records, built by plain append.
func wantOps(n int, salt byte) []Op {
	var ops []Op
	for i := 0; i < n; i++ {
		var d [64]byte
		d[0], d[63] = byte(i), salt
		switch i % 4 {
		case 0:
			ops = append(ops, Op{Kind: Write, Addr: uint64(i) * 64, Data: d})
		case 1:
			ops = append(ops, Op{Kind: Flush, Addr: uint64(i) * 64, Data: d})
		case 2:
			ops = append(ops, Op{Kind: Compute, Cycles: sim.Cycle(i)}, Op{Kind: Read, Addr: uint64(i) * 64})
		case 3:
			ops = append(ops, Op{Kind: Fence})
		}
	}
	return ops
}

func sameOps(t *testing.T, got, want []Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRecorderSpansChunks(t *testing.T) {
	n := 3*chunkOps + 123
	r := NewRecorder("chunks", 0)
	recordN(r, n, 1)
	tr := r.Finish()
	sameOps(t, tr.Ops, wantOps(n, 1))
	if cap(tr.Ops) != len(tr.Ops) {
		t.Fatalf("Ops cap %d, len %d: not assembled at its exact length", cap(tr.Ops), len(tr.Ops))
	}
}

func TestFinishIdempotent(t *testing.T) {
	r := NewRecorder("again", 0)
	recordN(r, chunkOps+5, 2)
	r.Compute(9) // trailing compute, flushed by the first Finish only
	a := r.Finish()
	ops := a.Ops
	b := r.Finish()
	if a != b {
		t.Fatal("second Finish returned another trace")
	}
	if len(b.Ops) != len(ops) || &b.Ops[0] != &ops[0] {
		t.Fatal("second Finish rebuilt the ops")
	}
	want := append(wantOps(chunkOps+5, 2), Op{Kind: Compute, Cycles: 9})
	sameOps(t, b.Ops, want)

	// Recording after Finish appends to the same trace.
	r.TxBegin()
	r.TxEnd()
	c := r.Finish()
	sameOps(t, c.Ops, append(want, Op{Kind: TxBegin}, Op{Kind: TxEnd}))
	if c.Transactions != 1 {
		t.Fatalf("transactions = %d", c.Transactions)
	}
}

func TestRecycledChunksStartClean(t *testing.T) {
	// Recorders on several goroutines share the chunk pool. Each must
	// record exactly its own ops whatever chunks it is handed, and a
	// finished trace must not change when its chunks are reused.
	const workers = 4
	sizes := [workers]int{2*chunkOps + 7, chunkOps / 2, chunkOps, 3*chunkOps - 1}
	var traces [workers]*Trace
	for round := 0; round < 3; round++ {
		done := make(chan int, workers) // one send per worker
		for w := 0; w < workers; w++ {
			go func(w int) {
				r := NewRecorder("pooled", 0)
				recordN(r, sizes[w], byte(round*workers+w))
				traces[w] = r.Finish()
				done <- w
			}(w)
		}
		for range sizes {
			<-done
		}
		for w, tr := range traces {
			sameOps(t, tr.Ops, wantOps(sizes[w], byte(round*workers+w)))
		}
	}
}

func TestEmptyRecorderHasNoOps(t *testing.T) {
	tr := NewRecorder("empty", 0).Finish()
	if tr.Ops != nil || tr.Transactions != 0 {
		t.Fatalf("empty trace = %+v", tr)
	}
}

// TestRecorderTracksLineSpan pins the span the Recorder keeps: the
// checkpoint image and every Read, Write and Flush widen it to whole
// lines, and nothing else does.
func TestRecorderTracksLineSpan(t *testing.T) {
	r := NewRecorder("span", 0)
	if _, end := r.Finish().LineSpan(); end != 0 {
		t.Fatalf("empty trace spans up to %#x", end)
	}
	var d [64]byte
	r.SetInitImage([]InitLine{{Addr: 0x3000, Data: d}})
	r.Compute(10)
	r.Fence()
	r.TxBegin()
	r.Write(0x2010, d)
	r.Flush(0x5000, d)
	r.Read(0x1fff)
	r.TxEnd()
	if lo, end := r.Finish().LineSpan(); lo != 0x1fc0 || end != 0x5040 {
		t.Fatalf("span [%#x, %#x), want [0x1fc0, 0x5040)", lo, end)
	}
}
