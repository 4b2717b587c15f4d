package controller

import (
	"fmt"

	"dolos/internal/masu"
	"dolos/internal/sim"
)

// read is an NVM read in flight: the requester's completion and the
// security latency charged once the data is back.
type read struct {
	done  sim.Handler
	arg   uint64
	extra sim.Cycle
}

// ReadLine serves an LLC-miss read. done(arg), if done is non-nil,
// fires when the verified, decrypted line would be available to the
// cache hierarchy. Reads that hit the WPQ tag array are served on-chip;
// others pay the NVM fetch, MAC verification and any metadata-cache
// misses.
//
// An integrity violation on the read path panics: during benign
// simulation it indicates a model bug, and adversarial scenarios are
// driven through the recovery/attack APIs where errors are returned.
func (c *Controller) ReadLine(addr uint64, done sim.Handler, arg uint64) {
	addr &^= 63
	c.cMemReads.Inc()

	if slot, ok := c.queue().Lookup(addr); ok {
		c.queue().ReadHit()
		c.cReadHits.Inc()
		if c.probe != nil {
			c.probe.Instant(c.tWPQ, "read-hit")
		}
		if c.mi != nil {
			// Exercise the functional decrypt so WPQ read data is real.
			if a, _ := c.mi.DecryptSlot(slot); a != addr {
				panic(fmt.Sprintf("controller: WPQ tag/slot mismatch at %#x", addr))
			}
		}
		// The on-chip hit cost: tag-array lookup plus the one-cycle XOR
		// decrypt (Section 4.5).
		c.readDelay.After(c.costs.WPQHit, done, arg)
		return
	}

	cost, err := c.readThroughMaSU(addr)
	if err != nil {
		panic("controller: read integrity violation: " + err.Error())
	}
	i := c.reads.Put(read{done: done, arg: arg, extra: c.costs.ReadExtra(cost)})
	c.dev.AccessRead(addr, c.readFetchedFn, i)
}

// readFetched charges the security latency of the read in row i once
// its data is back from NVM.
func (c *Controller) readFetched(i uint64) {
	r := c.reads.Take(i)
	c.readDelay.After(r.extra, r.done, r.arg)
}

// readThroughMaSU performs the verified read and records its metadata
// cache misses.
func (c *Controller) readThroughMaSU(addr uint64) (masu.Cost, error) {
	_, cost, err := c.ma.ReadLine(addr)
	c.cReadCounterMiss.Add(uint64(cost.CounterMisses))
	c.cReadTreeMiss.Add(uint64(cost.TreeMisses))
	return cost, err
}
