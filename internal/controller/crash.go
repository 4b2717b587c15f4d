package controller

import (
	"fmt"

	"dolos/internal/masu"
	"dolos/internal/misu"
	"dolos/internal/scheme"
	"dolos/internal/wpq"
)

// ADRBudget models the standard ADR reserve: enough energy to flush the
// hardware WPQ (72 bytes per entry) plus, for Post-WPQ, one MAC
// computation (Section 4.3 Design Option 3 reserves queue entries to pay
// for it).
type ADRBudget struct {
	// FlushBytes is the maximum bytes the reserve can push to NVM.
	FlushBytes int
	// MACOps is the maximum MAC computations the reserve can power.
	MACOps int
}

// StandardADR returns the budget of a platform whose ADR was provisioned
// for a hardware WPQ of the given size with no security support — the
// constraint Dolos must operate within.
func StandardADR(hardwareWPQ int) ADRBudget {
	return ADRBudget{FlushBytes: hardwareWPQ * wpq.EntryDataSize, MACOps: 1}
}

// BudgetError reports an ADR budget violation during a drain.
type BudgetError struct {
	Used, Allowed ADRBudget
}

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("controller: drain exceeded ADR budget: used %d B / %d MACs, allowed %d B / %d MACs",
		e.Used.FlushBytes, e.Used.MACOps, e.Allowed.FlushBytes, e.Allowed.MACOps)
}

// CrashReport describes a power-failure drain.
type CrashReport struct {
	// LiveEntries is how many un-processed writes were in the WPQ.
	LiveEntries int
	// Drain is the Mi-SU drain accounting (Dolos schemes).
	Drain misu.DrainStats
	// BytesFlushed is the total bytes pushed on ADR power.
	BytesFlushed int
}

// Crash simulates a power failure: volatile state is lost, the WPQ is
// drained to NVM on the ADR reserve, and the budget is audited. After
// Crash the controller accepts no further requests until Recover.
func (c *Controller) Crash() (CrashReport, error) {
	if !c.Functional() {
		return CrashReport{}, fmt.Errorf("controller: Crash on a FastMode configuration: %w", masu.ErrFastMode)
	}
	c.crashed = true
	c.epoch++
	var rep CrashReport
	rep.LiveEntries = c.queue().Live()

	budget := StandardADR(c.cfg.HardwareWPQ)
	switch {
	case c.cfg.Scheme.IsDolos():
		st := c.mi.Drain()
		rep.Drain = st
		rep.BytesFlushed = st.EntriesWritten*wpq.EntryDataSize + st.MACBlocksWritten*64
		used := ADRBudget{FlushBytes: rep.BytesFlushed, MACOps: st.DeferredMACs}
		if used.FlushBytes > budget.FlushBytes || used.MACOps > budget.MACOps {
			return rep, &BudgetError{Used: used, Allowed: budget}
		}
	default:
		// Baseline and ideal schemes: every accepted write was already
		// fully secured and functionally applied, so draining is just
		// the data flush the platform's ADR was built for.
		rep.BytesFlushed = rep.LiveEntries * wpq.EntryDataSize
	}

	c.ma.CrashVolatile()
	c.waiters, c.waitHead = nil, 0
	return rep, nil
}

// RecoveryMode selects the Ma-SU metadata recovery path.
type RecoveryMode int

const (
	// AnubisRecovery replays the shadow region (fast path).
	AnubisRecovery RecoveryMode = iota
	// OsirisRecovery probes counters against ECC and rebuilds the tree
	// (slow path; BMT only).
	OsirisRecovery
)

// RecoverReport describes a boot-time recovery.
type RecoverReport struct {
	// WPQReplayed is the number of writes restored from the drained WPQ.
	WPQReplayed int
	// MaSU is the metadata recovery report.
	MaSU masu.RecoveryReport
	// RecoveryCycles is the modeled boot-time cost for schemes that
	// report the recovery axis (zero otherwise; see RecoveryEstimate).
	RecoveryCycles uint64
}

// RecoveryEstimate returns the scheme's modeled boot-time recovery cost
// in cycles — the Triad-NVM/SuperMem recovery-vs-runtime axis. Zero for
// legacy schemes (which do not report the axis, keeping their records
// bit-identical to the seed). Derived only from address sets and shadow
// occupancy, so it is identical in fast and functional mode and can be
// sampled without crashing.
func (c *Controller) RecoveryEstimate() uint64 {
	if !c.pipe.ReportsRecovery {
		return 0
	}
	if c.pipe.Recovery == scheme.RecoverReconstruct {
		return c.ma.ReconstructEstimate()
	}
	return c.ma.AnubisEstimate()
}

// Recover restores the system after Crash: Ma-SU metadata first (so the
// counter/tree state is consistent with the persistent root register),
// then the drained WPQ image is verified, decrypted and replayed through
// the Ma-SU. On success the controller accepts requests again.
func (c *Controller) Recover(mode RecoveryMode) (RecoverReport, error) {
	var rep RecoverReport
	if !c.Functional() {
		return rep, fmt.Errorf("controller: Recover on a FastMode configuration: %w", masu.ErrFastMode)
	}
	rep.RecoveryCycles = c.RecoveryEstimate()
	var err error
	if c.pipe.Recovery == scheme.RecoverReconstruct {
		// Reconstruction schemes have no shadow region and no probing
		// fallback: the requested mode is irrelevant.
		rep.MaSU, err = c.ma.RecoverReconstruct()
	} else {
		switch mode {
		case AnubisRecovery:
			rep.MaSU, err = c.ma.RecoverAnubis()
		case OsirisRecovery:
			rep.MaSU, err = c.ma.RecoverOsiris()
		}
	}
	if err != nil {
		return rep, err
	}

	if c.mi != nil {
		writes, rerr := c.mi.Recover()
		if rerr != nil {
			return rep, rerr
		}
		for _, w := range writes {
			c.ma.ProcessWrite(w.Addr, w.Plain, -1)
		}
		rep.WPQReplayed = len(writes)
	} else {
		c.bq.Reset()
	}

	c.crashed = false
	return rep, nil
}
