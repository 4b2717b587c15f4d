// Package trace defines the memory-operation streams that connect the
// workload generators to the timing simulator. A trace is the substrate
// substitution for gem5's instruction stream: it carries exactly what the
// memory system sees — stores, loads, cache-line flushes, fences and the
// compute gaps between them — recorded once per (workload, parameters)
// and replayed identically under every controller scheme so comparisons
// are paired.
package trace

import (
	"fmt"
	"sync"

	"dolos/internal/sim"
)

// Kind enumerates trace operations.
type Kind uint8

const (
	// Compute advances time without memory activity.
	Compute Kind = iota
	// Read is a load from a persistent-heap line.
	Read
	// Write is a store to a persistent-heap line (carries the full line
	// value after the store, so replay is scheme-independent).
	Write
	// Flush is a clwb of one line (carries the line value being
	// persisted).
	Flush
	// Fence is an sfence: execution stalls until every previously
	// issued flush has been accepted into the persistence domain.
	Fence
	// TxBegin marks the start of a durable transaction.
	TxBegin
	// TxEnd marks commit completion.
	TxEnd
)

// String returns the op-kind mnemonic.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Read:
		return "read"
	case Write:
		return "write"
	case Flush:
		return "flush"
	case Fence:
		return "fence"
	case TxBegin:
		return "txbegin"
	case TxEnd:
		return "txend"
	}
	return fmt.Sprintf("Kind(%d)", k)
}

// Op is one trace operation.
type Op struct {
	Kind   Kind
	Addr   uint64
	Cycles sim.Cycle // Compute only
	Data   [64]byte  // Write/Flush: line contents
}

// InitLine is one pre-populated memory line: the fast-forward image.
type InitLine struct {
	Addr uint64
	Data [64]byte
}

// Trace is a recorded operation stream.
type Trace struct {
	// Name identifies the workload (e.g. "Hashmap").
	Name string
	// TxSize is the transaction payload in bytes.
	TxSize int
	// Transactions is the number of durable transactions recorded.
	Transactions int
	// InitImage is the memory image at the start of the measured phase —
	// the state the warm-up (fast-forward) built. The simulator loads it
	// functionally before replaying Ops, exactly as gem5 restores a
	// checkpoint after fast-forwarding.
	InitImage []InitLine
	// Ops is the operation stream.
	Ops []Op

	// lo and end delimit the lines the checkpoint image and the memory
	// ops touch (see LineSpan).
	lo, end uint64
}

// LineSpan returns the lines the trace's checkpoint image and Read,
// Write and Flush ops touch: lo is the first line's address and end the
// last line's plus 64. end is 0 when the trace touches no line.
// The Recorder tracks the span as it records and Load recomputes it; a
// trace edited after either may touch lines outside it.
func (t *Trace) LineSpan() (lo, end uint64) { return t.lo, t.end }

// isMem reports whether ops of kind k address a line.
func isMem(k Kind) bool { return k == Read || k == Write || k == Flush }

// cover widens the span to addr's line.
func (t *Trace) cover(addr uint64) {
	addr &^= 63
	if t.end == 0 {
		t.lo, t.end = addr, addr+64
		return
	}
	t.lo = min(t.lo, addr)
	t.end = max(t.end, addr+64)
}

// Counts summarizes a trace's composition.
type Counts struct {
	Reads, Writes, Flushes, Fences int
	ComputeCycles                  sim.Cycle
}

// Count tallies the trace composition.
func (t *Trace) Count() Counts {
	var c Counts
	for i := range t.Ops {
		switch t.Ops[i].Kind {
		case Read:
			c.Reads++
		case Write:
			c.Writes++
		case Flush:
			c.Flushes++
		case Fence:
			c.Fences++
		case Compute:
			c.ComputeCycles += t.Ops[i].Cycles
		}
	}
	return c
}

// chunkOps is the capacity of one recording chunk (~360 KB of ops).
const chunkOps = 4096

// maxFreeChunks bounds the chunks kept for reuse: 64 chunks, about
// 23 MB, kept for the life of the process. The largest trace the
// repository's benchmark generates, 1000 Btree transactions, records
// into 50.
const maxFreeChunks = 64

// freeChunks recycles recording chunks between recorders, so that a
// trace generated after another (the next cell, the next core's trace)
// records into memory that needs no fresh zeroed allocation. Unlike a
// sync.Pool, which a garbage collection empties, it keeps its chunks
// until the next recorder takes them, so what a generation allocates
// does not depend on when the collector last ran.
var freeChunks struct {
	sync.Mutex
	list []*[chunkOps]Op
}

// getChunk takes a free chunk, or allocates one when none is free.
func getChunk() *[chunkOps]Op {
	freeChunks.Lock()
	defer freeChunks.Unlock()
	n := len(freeChunks.list)
	if n == 0 {
		return new([chunkOps]Op)
	}
	c := freeChunks.list[n-1]
	freeChunks.list[n-1] = nil
	freeChunks.list = freeChunks.list[:n-1]
	return c
}

// putChunk returns a chunk for reuse, or leaves it to the collector
// when maxFreeChunks are already free.
func putChunk(c *[chunkOps]Op) {
	freeChunks.Lock()
	defer freeChunks.Unlock()
	if len(freeChunks.list) < maxFreeChunks {
		freeChunks.list = append(freeChunks.list, c)
	}
}

// ReleaseChunks drops every free recording chunk, so the next
// recordings allocate fresh ones, as the first in a process does.
func ReleaseChunks() {
	freeChunks.Lock()
	defer freeChunks.Unlock()
	clear(freeChunks.list)
	freeChunks.list = freeChunks.list[:0]
}

// Recorder builds a trace incrementally; the pmem layer drives it.
//
// Ops are recorded into fixed-size chunks and copied into one
// exact-length Trace.Ops by Finish, which returns the chunks for reuse
// (freeChunks). Growing a single slice by append instead would allocate
// about five times the final trace and copy it about four times.
type Recorder struct {
	t Trace
	// full holds the filled chunks in order; cur is being filled.
	full [][]Op
	cur  []Op
	// pendingCompute batches adjacent compute ops into one.
	pendingCompute sim.Cycle
}

// NewRecorder starts a trace for the named workload.
func NewRecorder(name string, txSize int) *Recorder {
	return &Recorder{t: Trace{Name: name, TxSize: txSize}}
}

// next returns the slot of the next op, in the current chunk. A
// recycled chunk holds stale ops, so callers assign the whole slot.
func (r *Recorder) next() *Op {
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.full = append(r.full, r.cur)
		}
		r.cur = getChunk()[:0]
	}
	r.cur = r.cur[:len(r.cur)+1]
	return &r.cur[len(r.cur)-1]
}

// add records an op with no line data, after any pending compute.
func (r *Recorder) add(k Kind, addr uint64) {
	r.flushCompute()
	*r.next() = Op{Kind: k, Addr: addr}
}

func (r *Recorder) flushCompute() {
	if r.pendingCompute > 0 {
		*r.next() = Op{Kind: Compute, Cycles: r.pendingCompute}
		r.pendingCompute = 0
	}
}

// Compute accumulates compute cycles (coalesced into single ops).
func (r *Recorder) Compute(c sim.Cycle) { r.pendingCompute += c }

// Read records a load of addr's line.
func (r *Recorder) Read(addr uint64) {
	r.add(Read, addr&^63)
	r.t.cover(addr)
}

// Write records a store; data is the line value after the store.
func (r *Recorder) Write(addr uint64, data [64]byte) {
	r.flushCompute()
	*r.next() = Op{Kind: Write, Addr: addr &^ 63, Data: data}
	r.t.cover(addr)
}

// Flush records a clwb; data is the line value being persisted.
func (r *Recorder) Flush(addr uint64, data [64]byte) {
	r.flushCompute()
	*r.next() = Op{Kind: Flush, Addr: addr &^ 63, Data: data}
	r.t.cover(addr)
}

// Fence records an sfence.
func (r *Recorder) Fence() { r.add(Fence, 0) }

// SetInitImage attaches the fast-forward memory image.
func (r *Recorder) SetInitImage(img []InitLine) {
	r.t.InitImage = img
	for i := range img {
		r.t.cover(img[i].Addr)
	}
}

// TxBegin records a transaction start.
func (r *Recorder) TxBegin() { r.add(TxBegin, 0) }

// TxEnd records a transaction commit.
func (r *Recorder) TxEnd() {
	r.add(TxEnd, 0)
	r.t.Transactions++
}

// Finish returns the completed trace. It may be called more than once;
// ops recorded after a call are appended to the same trace by the next.
func (r *Recorder) Finish() *Trace {
	r.flushCompute()
	if r.cur == nil {
		return &r.t // nothing recorded since the last call
	}
	n := len(r.t.Ops) + len(r.cur)
	for _, c := range r.full {
		n += len(c)
	}
	ops := append(make([]Op, 0, n), r.t.Ops...)
	for _, c := range append(r.full, r.cur) {
		ops = append(ops, c...)
		putChunk((*[chunkOps]Op)(c[:chunkOps]))
	}
	r.t.Ops = ops
	r.full, r.cur = nil, nil
	return &r.t
}
