package cpu

import (
	"fmt"

	"dolos/internal/cache"
	"dolos/internal/sim"
	"dolos/internal/stats"
	"dolos/internal/telemetry"
	"dolos/internal/trace"
)

// Port is the path from one core's flushed lines into the persistence
// domain: the memory controller itself for the single-core System, the
// shared controller's arbiter for one core of a multi-core machine.
type Port interface {
	// Persist sends the line op flushes (op is a trace Flush) toward the
	// persistence domain and calls accepted once it is accepted there.
	// An issue loop passes the same accepted, bound once, on every call.
	Persist(op *trace.Op, accepted func())
}

// maxPrefetchInflight bounds stride-prefetch reads in flight so the
// prefetcher cannot starve demand traffic.
const maxPrefetchInflight = 2

// Issuer is the trace-issue loop of one core. It issues a trace's
// operations in program order against the core's cache hierarchy:
// stores complete into the caches, clwb sends a dirty line through the
// Port without waiting, and sfence stalls issue until every outstanding
// flush has been accepted into the persistence domain.
//
// Reads are the only operations that overlap. Issue runs past an
// outstanding read miss until window reads are in flight, so at window
// 1 every read completes before the next operation issues: the in-order
// core. Windows above 1 overlap independent read misses and run a
// stride prefetcher. Stores, flushes and compute charge their costs on
// the issue path at every window, so persist ordering never changes.
type Issuer struct {
	eng    *sim.Engine
	hier   *cache.Hierarchy
	mirror *TraceMirror
	port   Port
	txLat  *stats.Histogram
	txRes  *stats.Reservoir

	// Telemetry (nil when disabled): transaction and fence-stall spans.
	probe *telemetry.Probe
	track telemetry.TrackID

	window int
	tr     *trace.Trace
	i      int

	inflight    int  // outstanding demand reads
	stalled     bool // issue blocked on a full read window
	outstanding int  // flushes issued, not yet accepted
	fenceWait   bool
	fenceStart  sim.Cycle
	txStart     sim.Cycle

	finished     bool
	endCycle     sim.Cycle
	ops          int
	transactions int
	fenceStalls  sim.Cycle
	prefetches   uint64

	// Continuations bound once, so issuing an operation allocates
	// nothing. stepFn is the issue loop's own event.
	stepFn     func()
	readDoneFn func()
	prefDoneFn func()
	acceptedFn func()

	prefLast     uint64
	prefStride   int64
	prefInflight int
}

// NewIssuer returns the issue loop of one core: operations run on eng
// against hier, written lines are tracked in mirror, flushed lines leave
// through port, and each committed transaction's latency is observed in
// txLat and txRes (a multi-core machine shares these between cores).
func NewIssuer(eng *sim.Engine, hier *cache.Hierarchy, mirror *TraceMirror, port Port,
	txLat *stats.Histogram, txRes *stats.Reservoir) *Issuer {
	l := &Issuer{eng: eng, hier: hier, mirror: mirror, port: port, txLat: txLat, txRes: txRes}
	l.stepFn = l.resume
	l.readDoneFn = l.readDone
	l.prefDoneFn = l.prefetchDone
	l.acceptedFn = l.persistAccepted
	return l
}

// Start schedules the issue of tr at the current cycle with the given
// read window (values below 1 issue as window 1, the in-order core).
func (l *Issuer) Start(tr *trace.Trace, window int) {
	if l.tr != nil {
		panic("cpu: issue loop already started")
	}
	l.tr, l.window = tr, max(window, 1)
	l.eng.At(l.eng.Now(), l.stepFn)
}

// Finished reports whether every operation of the trace has completed.
func (l *Issuer) Finished() bool { return l.finished }

// EndCycle is the cycle at which the last operation completed.
func (l *Issuer) EndCycle() sim.Cycle { return l.endCycle }

// Ops is the number of operations issued.
func (l *Issuer) Ops() int { return l.ops }

// Transactions is the number of transactions committed.
func (l *Issuer) Transactions() int { return l.transactions }

// FenceStalls is the total cycles issue spent blocked in sfence.
func (l *Issuer) FenceStalls() sim.Cycle { return l.fenceStalls }

// Prefetches is the number of stride-prefetch reads issued.
func (l *Issuer) Prefetches() uint64 { return l.prefetches }

// resume is the issue loop's event: it issues operations, and it may
// charge each issue-path latency in place (see yield).
func (l *Issuer) resume() { l.issue(true) }

// step issues operations from inside another component's completion
// (a read fill, a persist acceptance), which carries on at the current
// cycle once step returns, so every issue-path latency is queued.
func (l *Issuer) step() { l.issue(false) }

// issue issues operations until it must stop: a full read window, a
// parked fence, the end of the trace, or an issue-path latency
// (compute, store, clwb) that yield could not charge in place.
func (l *Issuer) issue(inPlace bool) {
	for {
		if l.i >= len(l.tr.Ops) {
			if l.inflight == 0 {
				l.finish()
			}
			return // outstanding reads finish the trace in readDone
		}
		if l.inflight >= l.window {
			l.stalled = true
			return
		}
		op := &l.tr.Ops[l.i]
		l.ops++
		switch op.Kind {
		case trace.Compute:
			l.i++
			if !l.yield(op.Cycles, inPlace) {
				return
			}
		case trace.Read:
			l.i++
			l.inflight++
			l.hier.Read(op.Addr, l.readDoneFn)
			l.maybePrefetch(op.Addr)
		case trace.Write:
			l.i++
			l.mirror.Set(op.Addr, &op.Data)
			if !l.yield(l.hier.Write(op.Addr), inPlace) {
				return
			}
		case trace.Flush:
			l.i++
			l.mirror.Set(op.Addr, &op.Data)
			if l.hier.FlushLine(op.Addr) {
				l.outstanding++
				l.port.Persist(op, l.acceptedFn)
			}
			// clwb issue cost; completion is async.
			if !l.yield(2, inPlace) {
				return
			}
		case trace.Fence:
			if l.outstanding > 0 {
				l.fenceWait = true
				l.fenceStart = l.eng.Now()
				return
			}
			l.i++
			if !l.yield(1, inPlace) {
				return
			}
		case trace.TxBegin:
			l.i++
			l.txStart = l.eng.Now()
		case trace.TxEnd:
			l.i++
			l.observeTx()
		default:
			panic(fmt.Sprintf("cpu: unknown op kind %v", op.Kind))
		}
	}
}

// yield charges delay cycles of issue-path latency before the next
// operation. From the loop's own event (inPlace) the engine dispatches
// the continuation in place when it would be the next event anyway, and
// yield reports true: issue carries on at the advanced clock. Otherwise
// the continuation is queued and issue must return.
func (l *Issuer) yield(delay sim.Cycle, inPlace bool) bool {
	if inPlace && l.eng.Advance(delay) {
		return true
	}
	l.eng.After(delay, l.stepFn)
	return false
}

func (l *Issuer) finish() {
	l.endCycle = l.eng.Now()
	l.finished = true
}

// observeTx records the transaction that began at txStart.
func (l *Issuer) observeTx() {
	l.transactions++
	lat := float64(l.eng.Now() - l.txStart)
	l.txLat.Observe(lat)
	l.txRes.Observe(lat)
	if l.probe != nil {
		l.probe.Span(l.track, "tx", l.txStart, l.eng.Now())
	}
}

// readDone completes one demand read: resume a window-stalled issue, or
// finish the trace once the tail reads drain.
func (l *Issuer) readDone() {
	l.inflight--
	if l.stalled {
		l.stalled = false
		l.step()
		return
	}
	if l.i >= len(l.tr.Ops) && l.inflight == 0 {
		l.finish()
	}
}

// persistAccepted completes one flush's acceptance into the persistence
// domain and resumes a parked fence when it was the last outstanding.
func (l *Issuer) persistAccepted() {
	l.outstanding--
	if l.outstanding == 0 && l.fenceWait {
		l.fenceWait = false
		l.fenceStalls += l.eng.Now() - l.fenceStart
		if l.probe != nil {
			l.probe.Span(l.track, "fence-stall", l.fenceStart, l.eng.Now())
		}
		l.i++
		l.step()
	}
}

// maybePrefetch issues a next-line stride prefetch after two demand
// reads with the same address delta. Prefetches fill the cache
// hierarchy through the normal read path but are invisible to the read
// window; only lines the application wrote are prefetched, and lines
// already on chip are skipped.
func (l *Issuer) maybePrefetch(addr uint64) {
	if l.window <= 1 {
		return
	}
	last, confirmed := l.prefLast, l.prefStride
	l.prefStride = int64(addr) - int64(last)
	l.prefLast = addr
	if last == 0 || l.prefStride == 0 || l.prefStride != confirmed {
		return
	}
	next := uint64(int64(addr) + l.prefStride)
	if l.prefInflight >= maxPrefetchInflight || l.hier.Contains(next) || l.mirror.At(next) == nil {
		return
	}
	l.prefInflight++
	l.prefetches++
	l.hier.Read(next, l.prefDoneFn)
}

func (l *Issuer) prefetchDone() { l.prefInflight-- }
