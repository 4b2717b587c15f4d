package controller

import (
	"dolos/internal/masu"
	"dolos/internal/scheme"
	"dolos/internal/sim"
	"dolos/internal/wpq"
)

// PersistWrite submits a flushed cache line to the persistence path.
// accepted fires at the cycle the write is considered persisted — i.e.
// it has entered the persistence domain (WPQ), which is what a pending
// sfence waits for. Writes that find the WPQ full (or the Post-WPQ Mi-SU
// busy) are retried; each failed attempt counts one retry event
// (Table 2's metric).
//
// data is read in place, not copied: *data must not change until the
// write drains. The cores pass lines of their immutable traces.
func (c *Controller) PersistWrite(addr uint64, data *[64]byte, accepted func()) {
	addr &^= 63
	c.cWriteRequests.Inc()
	c.noteArrival()
	if c.probe != nil {
		// Observe the request->acceptance latency: the pre-WPQ critical
		// path a pending sfence is exposed to. The wrapper changes no
		// scheduling — it runs inline where accepted would.
		t0 := c.eng.Now()
		inner := accepted
		accepted = func() {
			c.hAccept.Observe(float64(c.eng.Now() - t0))
			if inner != nil {
				inner()
			}
		}
	}
	c.tryInsert(&waiter{addr: addr, data: data, accepted: accepted}, false)
}

// EvictWrite submits a dirty non-persist writeback (an LLC victim). It
// takes the same secured path but nothing waits on it. As with
// PersistWrite, *data must not change until the write drains.
func (c *Controller) EvictWrite(addr uint64, data *[64]byte) {
	addr &^= 63
	if c.cEvictRequests == nil {
		// Interned lazily, unlike the other handles: bench-grid runs
		// never evict, and registering the counter at construction would
		// add a zero-valued entry to their metrics snapshots.
		c.cEvictRequests = c.st.Counter("wpq.evict_requests")
	}
	c.cEvictRequests.Inc()
	c.tryInsert(&waiter{addr: addr, data: data}, false)
}

// noteArrival tracks the WPQ request inter-arrival distribution, the
// statistic the paper's Post-WPQ design motivation quotes (473 cycles).
func (c *Controller) noteArrival() {
	now := float64(c.eng.Now())
	if c.haveArrival {
		c.hInterarrival.Observe(now - c.lastArrival)
	}
	c.haveArrival = true
	c.lastArrival = now
	c.hOccupancyArrival.Observe(float64(c.queue().Live()))
}

// tryInsert routes a write into the scheme's insertion path. wake marks
// re-attempts of parked writes.
func (c *Controller) tryInsert(w *waiter, wake bool) {
	if c.crashed {
		return
	}
	// Dispatch on the scheme's registered pre-persist pipeline: the
	// related-work schemes (Triad-NVM, SuperMem, Phoenix, STUM) share
	// the baseline's insert path and differentiate through the Ma-SU
	// policy behind it.
	switch c.pipe.Insert {
	case scheme.InsertDolosSplit:
		c.insertDolos(w, wake)
	case scheme.InsertPreWPQ:
		c.insertPreWPQ(w)
	case scheme.InsertEADR:
		c.insertEADR(w)
	default:
		c.insertIdeal(w, wake)
	}
}

// insertEADR handles a persist under extended ADR: the store was already
// inside the persistence domain when it retired into the cache, so the
// flush is acknowledged immediately — no WPQ involvement, no retries.
// Security work still runs (functionally now, its latency charged to the
// background pipeline), exactly as an eADR platform would secure lines
// on their way from the persistent caches to NVM.
func (c *Controller) insertEADR(w *waiter) {
	c.cInserted.Inc()
	if w.accepted != nil {
		c.eng.After(1, w.accepted)
	}
	cost := c.ma.ProcessWrite(w.addr, *w.data, -1)
	c.chargeWriteCost(cost)
	i := c.drains.Put(drain{addr: w.addr, epoch: c.epoch})
	c.secUnit.Submit(c.costs.DrainService(cost), c.eadrSecuredFn, i)
}

// eadrSecured sends the eADR write of drain row i to the NVM array once
// the background pipeline has secured it.
func (c *Controller) eadrSecured(i uint64) {
	d := c.drains.Take(i)
	if c.staleAt(d.epoch) {
		return
	}
	c.dev.AccessWrite(d.addr, c.eadrWrittenFn, 0)
}

func (c *Controller) eadrWritten(uint64) { c.cDrained.Inc() }

// park queues a write for retry when space frees. countRetry marks
// Table 2's metric: an insertion attempt that found the WPQ full (a
// Post-WPQ wait on the busy Mi-SU parks without counting — the paper's
// retry events are specifically full-queue events).
func (c *Controller) park(w *waiter, front, countRetry bool) {
	if countRetry {
		c.cRetryEvents.Inc()
		if c.probe != nil {
			c.probe.Instant(c.tWPQ, "retry")
		}
	}
	if front {
		if c.waitHead > 0 {
			// Refill the gap popWaiter left at the head.
			c.waitHead--
			c.waiters[c.waitHead] = *w
		} else {
			// Grow in place and shift right instead of building a fresh
			// slice: front parks happen on every full-WPQ retry, and a
			// rebuild would allocate a new backing array each time.
			c.waiters = append(c.waiters, waiter{})
			copy(c.waiters[1:], c.waiters)
			c.waiters[0] = *w
		}
	} else {
		c.waiters, c.waitHead = sim.Compact(c.waiters, c.waitHead)
		c.waiters = append(c.waiters, *w)
	}
}

// popWaiter dequeues the oldest parked write. Popping advances the head
// index and clears the vacated slot (releasing the accepted-callback
// reference); the slice rewinds to its base once empty so appends keep
// reusing one backing array.
func (c *Controller) popWaiter() (waiter, bool) {
	if c.waitHead == len(c.waiters) {
		return waiter{}, false
	}
	w := c.waiters[c.waitHead]
	c.waiters[c.waitHead] = waiter{}
	c.waitHead++
	if c.waitHead == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.waitHead = 0
	}
	return w, true
}

// wakeWaiters re-attempts the oldest parked write after a slot freed or
// the deferred Mi-SU op finished.
func (c *Controller) wakeWaiters() {
	if w, ok := c.popWaiter(); ok {
		c.tryInsert(&w, true)
	}
}

// --- Dolos insertion (Figure 5-d) ---

func (c *Controller) insertDolos(w *waiter, _ bool) {
	if !c.mi.CanAccept(w.addr) {
		// Rotate failed attempts to the back of the waiter queue: a
		// write stalled on same-line ordering must not block unrelated
		// waiters (head-of-line blocking).
		full := c.mi.Queue().Full() && !c.mi.Queue().CanCoalesce(w.addr)
		c.park(w, false, full)
		return
	}
	// The Mi-SU MAC engine is a serial resource; the insert occupies it
	// for the design's latency. Post-WPQ's XOR-only path is effectively
	// immediate and the deferred MAC runs after commit.
	c.miSU.Submit(c.costs.Insert, c.dolosInsertedFn, c.inserts.Put(insert{w: *w, epoch: c.epoch}))
}

// dolosInserted commits the write of insert row i to the WPQ once the
// Mi-SU has protected it.
func (c *Controller) dolosInserted(i uint64) {
	in := c.inserts.At(i)
	defer c.inserts.Free(i)
	if c.staleAt(in.epoch) {
		return
	}
	w := &in.w
	// Re-check: a competing insert may have consumed the last slot
	// while this one was in the engine.
	if !c.mi.CanAccept(w.addr) {
		full := c.mi.Queue().Full() && !c.mi.Queue().CanCoalesce(w.addr)
		c.park(w, false, full)
		return
	}
	slot := c.mi.Protect(w.addr, w.data)
	c.insertTime[slot] = c.eng.Now()
	c.cInserted.Inc()
	// The callback may submit another write, which can grow the table
	// under in: read nothing from it after this point.
	epoch := in.epoch
	if w.accepted != nil {
		w.accepted()
	}
	if c.cfg.Scheme == DolosPost {
		// The deferred MAC occupies the Mi-SU after commit; new
		// writes are rejected until it completes.
		c.miSU.Submit(c.costs.DeferredMAC, c.deferredMACFn, c.drains.Put(drain{epoch: epoch, slot: slot}))
	}
	c.pumpMaSU()
}

// deferredMACDone completes Post-WPQ's deferred MAC of the entry in
// drain row i's slot.
func (c *Controller) deferredMACDone(i uint64) {
	d := c.drains.Take(i)
	if c.staleAt(d.epoch) {
		return
	}
	c.mi.CompleteDeferredMAC(d.slot)
	c.wakeWaiters()
	// The entry only became fetchable now that its MAC is in place;
	// re-arm the Ma-SU.
	c.pumpMaSU()
}

// DrainDelay is how long an entry rests in the WPQ before the Ma-SU
// picks it up, when the pipeline is otherwise free. Write buffers drain
// lazily in hardware; the rest window is what makes the Section 4.5
// write-coalescing optimization effective for repeated lines (undo-log
// headers, hot YCSB records).
const DrainDelay = scheme.DrainDelayCycles

// pumpMaSU schedules the Ma-SU's next fetch from the WPQ (the run-time
// drain path, Figure 11). The entry is picked when the pipelined engine
// actually starts it — until then it stays coalescible in the WPQ — and
// its slot clears only after both the security work and the NVM write
// complete, which is what makes the queue fill under bursts.
func (c *Controller) pumpMaSU() {
	if c.crashed || c.maPumpArmed {
		return
	}
	slot, ok := c.mi.Queue().FetchOldest()
	if !ok {
		return
	}
	at := c.maSU.NextStart()
	if e := c.insertTime[slot] + DrainDelay; e > at {
		at = e
	}
	c.maPumpArmed = true
	c.maPumpEpoch = c.epoch
	c.eng.At(at, c.maFetchFn)
}

// maFetch is the armed Ma-SU fetch: it takes the oldest fetchable WPQ
// entry into the Ma-SU pipeline and re-arms for the next.
func (c *Controller) maFetch() {
	c.maPumpArmed = false
	if c.staleAt(c.maPumpEpoch) {
		return
	}
	slot, ok := c.mi.Queue().FetchOldest()
	if !ok {
		return
	}
	if c.insertTime[slot]+DrainDelay > c.eng.Now() {
		// The oldest entry changed (coalesce/clear); re-arm.
		c.pumpMaSU()
		return
	}
	q := c.mi.Queue()
	q.MarkFetched(slot)
	fetchSeq := q.Entry(slot).Seq
	addr, plain := c.mi.DecryptSlot(slot)
	cost := c.ma.ProcessWrite(addr, plain, slot)
	c.chargeWriteCost(cost)
	i := c.drains.Put(drain{addr: addr, epoch: c.maPumpEpoch, slot: slot, fetchSeq: fetchSeq})
	c.maSU.Submit(c.costs.DrainService(cost), c.maSecuredFn, i)
	c.pumpMaSU()
}

// maSecured sends the Ma-SU drain of row i to the NVM array: step 3 of
// Figure 11, the ciphertext heads to NVM.
func (c *Controller) maSecured(i uint64) {
	d := c.drains.At(i)
	if c.staleAt(d.epoch) {
		c.drains.Free(i)
		return
	}
	c.dev.AccessWrite(d.addr, c.maDrainedFn, i)
}

// maDrained completes the Ma-SU drain of row i once the write is in the
// array: step 4 clears its WPQ entry.
func (c *Controller) maDrained(i uint64) {
	d := c.drains.Take(i)
	if c.staleAt(d.epoch) {
		return
	}
	c.cDrained.Inc()
	if c.probe != nil {
		// Per-entry drain latency: WPQ residency from insertion to
		// the NVM array write completing.
		c.hDrain.Observe(float64(c.eng.Now() - c.insertTime[d.slot]))
	}
	e := c.mi.Queue().Entry(d.slot)
	if e.Valid && !e.Cleared && e.Seq == d.fetchSeq {
		// Unchanged since fetch: retire the entry. A newer coalesced
		// value (different Seq) stays live and will be re-fetched.
		c.mi.Queue().Clear(d.slot)
	}
	c.wakeWaiters()
	c.pumpMaSU()
}

// chargeWriteCost records cost composition statistics.
func (c *Controller) chargeWriteCost(cost masu.Cost) {
	c.cCounterMisses.Add(uint64(cost.CounterMisses))
	c.cTreeMisses.Add(uint64(cost.TreeMisses))
	c.cSerialMACs.Add(uint64(cost.SerialMACs))
	c.cNVMWrites.Add(uint64(cost.NVMWrites))
	c.cShadowWrites.Add(uint64(cost.ShadowWrites))
	if cost.ReencryptedLines > 0 {
		c.cPageReenc.Inc()
	}
}

// --- Baseline insertion (Figure 5-b): security before the WPQ ---

func (c *Controller) insertPreWPQ(w *waiter) {
	// The conventional security unit serializes: counter fetch, pad
	// generation, data MAC and the eager tree update all happen before
	// the write may enter the persistence domain.
	cost := c.ma.ProcessWrite(w.addr, *w.data, -1)
	c.chargeWriteCost(cost)
	c.secUnit.Submit(c.costs.InsertService(cost), c.preWPQSecuredFn, c.inserts.Put(insert{w: *w, epoch: c.epoch}))
}

// preWPQSecured places the write of insert row i into the WPQ once the
// security unit has processed it.
func (c *Controller) preWPQSecured(i uint64) {
	in := c.inserts.At(i)
	if c.staleAt(in.epoch) {
		c.inserts.Free(i)
		return
	}
	// allocBaseline's acceptance callback may submit another write,
	// which can grow the table under in: hand it a copy.
	w := in.w
	c.inserts.Free(i)
	c.allocBaseline(&w, false)
}

// allocBaseline places a security-processed write into the baseline WPQ.
func (c *Controller) allocBaseline(w *waiter, wake bool) {
	if c.crashed {
		return
	}
	slot, coalesced, ok := c.bq.Allocate(w.addr)
	if !ok {
		c.park(w, wake, true)
		return
	}
	c.cInserted.Inc()
	if w.accepted != nil {
		w.accepted()
	}
	if coalesced {
		// Merged into a live entry whose drain is already scheduled.
		return
	}
	c.bq.Commit(slot, wpq.Entry{Addr: w.addr, Valid: true})
	// Drain: the entry only awaits its NVM write (already secured).
	c.insertTime[slot] = c.eng.Now()
	c.dev.AccessWrite(w.addr, c.baselineDrainedFn, c.drains.Put(drain{epoch: c.epoch, slot: slot}))
}

// baselineDrained retires the baseline WPQ entry of drain row i once
// its NVM write completes.
func (c *Controller) baselineDrained(i uint64) {
	d := c.drains.Take(i)
	if c.staleAt(d.epoch) {
		return
	}
	c.bq.Clear(d.slot)
	c.cDrained.Inc()
	if c.probe != nil {
		c.hDrain.Observe(float64(c.eng.Now() - c.insertTime[d.slot]))
	}
	c.wakeBaseline()
}

// wakeBaseline re-attempts a parked baseline write after a slot freed.
func (c *Controller) wakeBaseline() {
	if w, ok := c.popWaiter(); ok {
		c.allocBaseline(&w, true)
	}
}

// --- Ideal insertion (NonSecureADR): persist immediately ---

func (c *Controller) insertIdeal(w *waiter, wake bool) {
	slot, coalesced, ok := c.bq.Allocate(w.addr)
	if !ok {
		c.park(w, wake, true)
		return
	}
	c.cInserted.Inc()
	// Security is applied with zero charged latency (the infeasible
	// reference point): functional state stays exact.
	cost := c.ma.ProcessWrite(w.addr, *w.data, -1)
	c.chargeWriteCost(cost)
	if w.accepted != nil {
		c.eng.After(1, w.accepted)
	}
	if coalesced {
		return
	}
	c.bq.Commit(slot, wpq.Entry{Addr: w.addr, Valid: true})
	c.dev.AccessWrite(w.addr, c.idealDrainedFn, c.drains.Put(drain{epoch: c.epoch, slot: slot}))
}

// idealDrained retires the ideal scheme's WPQ entry of drain row i once
// its NVM write completes.
func (c *Controller) idealDrained(i uint64) {
	d := c.drains.Take(i)
	if c.staleAt(d.epoch) {
		return
	}
	c.bq.Clear(d.slot)
	c.cDrained.Inc()
	c.wakeIdeal()
}

func (c *Controller) wakeIdeal() {
	if w, ok := c.popWaiter(); ok {
		c.insertIdeal(&w, true)
	}
}
