// Package crash orchestrates full-system power-failure experiments: run a
// workload partway, cut power at an arbitrary cycle, drain the WPQ on the
// ADR reserve, recover at boot, and audit the result — every write the
// platform accepted into the persistence domain must read back with
// verified integrity, and the application's undo log must resolve any
// interrupted transaction.
package crash

import (
	"fmt"

	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/pmem"
	"dolos/internal/sim"
	"dolos/internal/trace"
)

// Outcome reports a crash-recovery experiment.
type Outcome struct {
	// CrashCycle is when power was cut.
	CrashCycle sim.Cycle
	// AcceptedWrites is how many persist acceptances preceded the crash.
	AcceptedWrites int
	// AcceptedLines is how many distinct lines those covered.
	AcceptedLines int
	// Crash and Recover are the controller reports.
	Crash   controller.CrashReport
	Recover controller.RecoverReport
	// LinesAudited is how many lines were read back and compared.
	LinesAudited int
	// TxRolledBack reports whether the application undo log had an
	// interrupted transaction to roll back.
	TxRolledBack bool
}

// RecoveryCycleEstimate converts the drain accounting into the paper's
// Section 5.5 recovery-time model: every drained slot record and MAC
// block is read back at 600 cycles, pads are regenerated twice at 40
// cycles per entry, and each live entry drains through the Ma-SU at
// 2100 cycles (NVM write + security work).
func (o Outcome) RecoveryCycleEstimate() uint64 {
	const (
		readPer  = 600
		padPer   = 40
		drainPer = 2100
	)
	blocks := uint64(o.Crash.Drain.EntriesWritten + o.Crash.Drain.MACBlocksWritten)
	entries := uint64(o.Crash.Drain.EntriesWritten)
	live := uint64(o.Crash.LiveEntries)
	return blocks*readPer + entries*padPer*2 + live*drainPer
}

// Driver runs crash experiments over one system configuration.
type Driver struct {
	sys      *cpu.System
	accepted map[uint64][64]byte
	order    []uint64
	count    int
}

// NewDriver builds a system for cfg with acceptance tracking installed.
// Crash experiments exist to prove that real MACs and real ECC survive
// power loss, so a latency-only configuration is a caller bug, not a
// degraded mode: the constructor refuses it with a typed error
// (masu.ErrFastMode) rather than silently normalizing the config,
// mirroring the controller's own Crash/Recover guards.
func NewDriver(cfg controller.Config) (*Driver, error) {
	if cfg.FastMode {
		return nil, fmt.Errorf("crash: driver requires functional crypto: %w", masu.ErrFastMode)
	}
	d := &Driver{
		sys:      cpu.NewSystem(cfg),
		accepted: make(map[uint64][64]byte),
	}
	d.sys.OnAccepted = func(addr uint64, data [64]byte) {
		if _, seen := d.accepted[addr]; !seen {
			d.order = append(d.order, addr)
		}
		d.accepted[addr] = data
		d.count++
	}
	return d, nil
}

// System exposes the underlying simulated machine.
func (d *Driver) System() *cpu.System { return d.sys }

// RunAndCrash executes the trace until crashCycle, cuts power, recovers
// with the given mode, and audits persistence. It returns an error on
// any integrity or durability violation.
func (d *Driver) RunAndCrash(tr *trace.Trace, crashCycle sim.Cycle, mode controller.RecoveryMode) (Outcome, error) {
	d.sys.Start(tr)
	d.sys.Eng.RunUntil(crashCycle)

	var out Outcome
	out.CrashCycle = d.sys.Eng.Now()
	out.AcceptedWrites = d.count
	out.AcceptedLines = len(d.accepted)

	crashRep, err := d.sys.Ctrl.Crash()
	if err != nil {
		return out, fmt.Errorf("crash drain: %w", err)
	}
	out.Crash = crashRep

	recRep, err := d.sys.Ctrl.Recover(mode)
	if err != nil {
		return out, fmt.Errorf("recovery: %w", err)
	}
	out.Recover = recRep

	if err := d.auditDurability(&out); err != nil {
		return out, err
	}
	return out, nil
}

// auditDurability checks that every accepted line reads back — through
// full decryption and integrity verification — as either its last
// accepted value or a newer application value (a volatile-cache eviction
// may legitimately have pushed a fresher version out).
func (d *Driver) auditDurability(out *Outcome) error {
	ma := d.sys.Ctrl.MaSU()
	for _, addr := range d.order {
		want := d.accepted[addr]
		got, _, err := ma.ReadLine(addr)
		if err != nil {
			return fmt.Errorf("audit read %#x: %w", addr, err)
		}
		if got != want {
			if newer, ok := d.sys.Mirror(addr); ok && got == newer {
				out.LinesAudited++
				continue
			}
			return fmt.Errorf("audit: line %#x lost its accepted value after recovery", addr)
		}
		out.LinesAudited++
	}
	return nil
}

// ResolveLog applies the application-level undo log after recovery: an
// interrupted (active) transaction is rolled back by writing the logged
// old images back through the Ma-SU. It returns whether a rollback
// happened. logBase and capacity describe the workload's TxHeap log.
func (d *Driver) ResolveLog(logBase uint64, capacity int) (bool, error) {
	ma := d.sys.Ctrl.MaSU()
	readLine := func(addr uint64) [64]byte {
		got, _, err := ma.ReadLine(addr)
		if err != nil {
			panic(fmt.Sprintf("crash: log read %#x failed: %v", addr, err))
		}
		return got
	}
	status, entries := pmem.ParseLog(logBase, capacity, readLine)
	restores := pmem.Rollback(status, entries)
	if restores == nil {
		return false, nil
	}
	for _, r := range restores {
		ma.ProcessWrite(r.Addr, r.Old, -1)
	}
	// Mark the log resolved.
	var idle [64]byte
	ma.ProcessWrite(logBase, idle, -1)
	return true, nil
}
