package whisper

import (
	"testing"

	"dolos/internal/trace"
)

func TestMicroWorkloadsGenerate(t *testing.T) {
	for _, name := range MicroNames() {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := w.Generate(smallParams())
		if tr.Transactions < 60 {
			t.Fatalf("%s: %d transactions", name, tr.Transactions)
		}
		c := tr.Count()
		if c.Flushes == 0 || c.Fences == 0 {
			t.Fatalf("%s: degenerate trace %+v", name, c)
		}
	}
}

func TestTxStreamFlushCount(t *testing.T) {
	// TxStream is the purest size microbenchmark: flushes per tx should
	// track the payload line count closely (payload + log + bookkeeping).
	tr := TxStream{}.Generate(Params{Transactions: 50, Warmup: 10, TxSize: 1024, Seed: 1})
	c := tr.Count()
	perTx := float64(c.Flushes) / float64(tr.Transactions)
	// 16 payload lines + 32 log lines + status + commit = 50.
	if perTx < 40 || perTx > 60 {
		t.Fatalf("flushes per tx = %.1f, want ~50", perTx)
	}
}

func TestPQueueFIFO(t *testing.T) {
	s := newSession(PQueue{}, Params{Transactions: 1, Warmup: 1, TxSize: 128, Seed: 1})
	q := &pqueueState{session: s}
	q.headSlot = s.heap.Alloc(64)
	q.tailSlot = s.heap.Alloc(64)

	for i := uint64(0); i < 5; i++ {
		q.enqueue(i)
	}
	// Values dequeue in insertion order: walk head pointers.
	for i := 0; i < 5; i++ {
		head := s.heap.ReadU64(q.headSlot)
		if head == 0 {
			t.Fatalf("queue empty after %d dequeues", i)
		}
		if !q.dequeue() {
			t.Fatal("dequeue failed")
		}
	}
	if q.dequeue() {
		t.Fatal("dequeue from empty queue succeeded")
	}
	if s.heap.ReadU64(q.headSlot) != 0 || s.heap.ReadU64(q.tailSlot) != 0 {
		t.Fatal("head/tail not reset after drain")
	}
}

func TestPQueueDeterministic(t *testing.T) {
	a := PQueue{}.Generate(smallParams())
	b := PQueue{}.Generate(smallParams())
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("PQueue trace nondeterministic")
	}
}

func TestYCSBReadPercentKnob(t *testing.T) {
	base := YCSB{}.Generate(Params{Transactions: 80, Warmup: 80, TxSize: 256, Seed: 5})
	readMostly := YCSB{}.Generate(Params{Transactions: 80, Warmup: 80, TxSize: 256, Seed: 5, ReadPercent: 95})
	cb, cr := base.Count(), readMostly.Count()
	if cr.Flushes >= cb.Flushes/3 {
		t.Fatalf("95%%-read mix still flushes heavily: %d vs %d", cr.Flushes, cb.Flushes)
	}
	if cr.Reads == 0 {
		t.Fatal("read-mostly mix generated no reads")
	}
	if readMostly.Transactions < 80 {
		t.Fatalf("read ops not counted as transactions: %d", readMostly.Transactions)
	}
	// Defaults unchanged: ReadPercent 0 reproduces the original stream.
	again := YCSB{}.Generate(Params{Transactions: 80, Warmup: 80, TxSize: 256, Seed: 5})
	if len(again.Ops) != len(base.Ops) {
		t.Fatal("default YCSB stream changed")
	}
}

func TestMicroTracesRunnable(t *testing.T) {
	// The micro traces execute under the simulator like the main six.
	for _, name := range MicroNames() {
		w, _ := ByName(name)
		tr := w.Generate(Params{Transactions: 20, Warmup: 10, TxSize: 256, Seed: 2})
		var pendingFlush bool
		for _, op := range tr.Ops {
			switch op.Kind {
			case trace.Flush:
				pendingFlush = true
			case trace.Fence:
				pendingFlush = false
			case trace.TxEnd:
				if pendingFlush {
					t.Fatalf("%s: unfenced flush at TxEnd", name)
				}
			}
		}
	}
}
