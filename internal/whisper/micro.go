package whisper

import "dolos/internal/trace"

// The paper evaluates "representative persistent workloads from Whisper,
// in addition to in-house developed workloads" (Section 1). These two
// microbenchmarks play that role: TxStream is the purest
// transaction-size microbenchmark (one durable transaction = one payload
// write, no index structure), and PQueue is the classic persistent FIFO
// queue from the PMDK examples. They are not part of the six-figure
// experiment set but are available to the CLIs and library users via
// MicroNames/ByName.

// TxStream writes fixed-size payloads to a rotating set of buffers, one
// durable transaction each — the distilled WPQ stress test.
type TxStream struct{}

// Name implements Workload.
func (TxStream) Name() string { return "TxStream" }

// Generate implements Workload.
func (TxStream) Generate(p Params) *trace.Trace {
	s := newSession(TxStream{}, p)
	const buffers = 64
	bufs := make([]uint64, buffers)
	for i := range bufs {
		bufs[i] = s.heap.Alloc(uint64(s.p.TxSize))
	}
	write := func(i int) {
		val := s.payload(uint64(i))
		s.compute(120)
		s.tx.Begin()
		s.tx.Store(bufs[i%buffers], val)
		s.tx.Commit()
	}
	for i := 0; i < s.p.Warmup; i++ {
		write(i)
	}
	s.record()
	for i := 0; i < s.p.Transactions; i++ {
		write(s.p.Warmup + i)
	}
	return s.rec.Finish()
}

// PQueue is a persistent FIFO queue: producers append nodes, consumers
// unlink from the head; both are durable transactions, matching the
// PMDK queue example's persistence pattern.
type PQueue struct{}

// Name implements Workload.
func (PQueue) Name() string { return "PQueue" }

// Queue node layout (one line): +0 next, +8 value addr, +16 value len.
type pqueueState struct {
	*session
	headSlot, tailSlot uint64
}

func (q *pqueueState) enqueue(i uint64) {
	val := q.payload(i)
	q.compute(90)
	vaddr := q.heap.Alloc(uint64(len(val)))
	node := q.heap.Alloc(64)
	tail := q.heap.ReadU64(q.tailSlot)

	q.tx.Begin()
	q.tx.StoreFresh(vaddr, val)
	q.tx.StoreFreshU64(node+8, vaddr)
	q.tx.StoreFreshU64(node+16, uint64(len(val)))
	if tail == 0 {
		q.tx.StoreU64(q.headSlot, node)
	} else {
		q.tx.StoreU64(tail, node) // old tail's next
	}
	q.tx.StoreU64(q.tailSlot, node)
	q.tx.Commit()
}

func (q *pqueueState) dequeue() bool {
	q.compute(70)
	head := q.heap.ReadU64(q.headSlot)
	if head == 0 {
		return false
	}
	next := q.heap.ReadU64(head)
	q.tx.Begin()
	q.tx.StoreU64(q.headSlot, next)
	if next == 0 {
		q.tx.StoreU64(q.tailSlot, 0)
	}
	q.tx.Commit()
	return true
}

// Generate implements Workload.
func (PQueue) Generate(p Params) *trace.Trace {
	s := newSession(PQueue{}, p)
	q := &pqueueState{session: s}
	q.headSlot = s.heap.Alloc(64)
	q.tailSlot = s.heap.Alloc(64)

	for i := 0; i < s.p.Warmup; i++ {
		q.enqueue(uint64(i))
	}
	s.record()
	for i := 0; i < s.p.Transactions; i++ {
		// Producer/consumer mix: 60% enqueue keeps the queue growing
		// slowly, realistic for a logging pipeline.
		if s.rng.Intn(5) < 3 {
			q.enqueue(uint64(s.p.Warmup + i))
		} else if !q.dequeue() {
			q.enqueue(uint64(s.p.Warmup + i))
		}
	}
	return s.rec.Finish()
}

// MicroNames lists the in-house microbenchmarks.
func MicroNames() []string { return []string{"TxStream", "PQueue"} }
