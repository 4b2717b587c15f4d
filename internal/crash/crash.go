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

// Outcome reports a crash-recovery experiment. The drain accounting is
// shared by every core: the cores contend for one WPQ and one Mi-SU, so
// the ADR budget audited at crash time covers every core's in-flight
// entries and deferred MACs summed together.
type Outcome struct {
	// CrashCycle is when power was cut.
	CrashCycle sim.Cycle
	// AcceptedWrites is how many persist acceptances preceded the
	// crash, summed over cores.
	AcceptedWrites int
	// AcceptedLines is how many distinct lines those covered, summed
	// over cores.
	AcceptedLines int
	// PerCoreAccepted is each core's persist-acceptance count at the
	// crash point (index = core id).
	PerCoreAccepted []int
	// Crash and Recover are the controller reports.
	Crash   controller.CrashReport
	Recover controller.RecoverReport
	// LinesAudited is how many lines were read back and compared,
	// across all cores.
	LinesAudited int
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

// Driver runs crash experiments over one machine, at any core count:
// the cores run mid-flight on one shared controller, power is cut at an
// arbitrary cycle, and every core's accepted writes are audited after
// recovery.
type Driver struct {
	m   *cpu.Machine
	sys *cpu.System // the one-core view NewDriver builds; nil otherwise

	// Per core: the last accepted value of each line, the lines in
	// first-acceptance order, and the number of acceptances.
	accepted []map[uint64][64]byte
	order    [][]uint64
	counts   []int
}

// NewDriver builds a one-core system for cfg with acceptance tracking
// installed; RunAndCrash gives it its trace. Crash experiments exist to
// prove that real MACs and real ECC survive power loss, so a
// latency-only configuration is a caller bug, not a degraded mode: the
// constructor refuses it with a typed error (masu.ErrFastMode) rather
// than silently normalizing the config, mirroring the controller's own
// Crash/Recover guards. A config Validate refuses is returned as its
// error.
func NewDriver(cfg controller.Config) (*Driver, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	sys := cpu.NewSystem(cfg)
	d := newDriver(&sys.Machine)
	d.sys = sys
	return d, nil
}

// NewMachineDriver builds a machine for cfg with one core per spec and
// per-core acceptance tracking installed; CrashAt runs it. Like
// NewDriver it refuses an invalid or latency-only controller config,
// and it refuses a core trace outside the controller's data region
// (cpu.Machine.CheckTraces).
func NewMachineDriver(cfg cpu.MachineConfig, cores []cpu.CoreSpec) (*Driver, error) {
	if err := checkConfig(cfg.Ctrl); err != nil {
		return nil, err
	}
	m := cpu.NewMachine(cfg, cores)
	if err := m.CheckTraces(); err != nil {
		return nil, err
	}
	return newDriver(m), nil
}

func checkConfig(cfg controller.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.FastMode {
		return fmt.Errorf("crash: driver requires functional crypto: %w", masu.ErrFastMode)
	}
	return nil
}

func newDriver(m *cpu.Machine) *Driver {
	n := len(m.Cores)
	d := &Driver{
		m:        m,
		accepted: make([]map[uint64][64]byte, n),
		order:    make([][]uint64, n),
		counts:   make([]int, n),
	}
	for i, c := range m.Cores {
		d.accepted[i] = make(map[uint64][64]byte)
		c.OnAccepted = func(addr uint64, data [64]byte) {
			if _, seen := d.accepted[i][addr]; !seen {
				d.order[i] = append(d.order[i], addr)
			}
			d.accepted[i][addr] = data
			d.counts[i]++
		}
	}
	return d
}

// System exposes the one-core system NewDriver built (nil for a driver
// built by NewMachineDriver).
func (d *Driver) System() *cpu.System { return d.sys }

// Machine exposes the underlying machine.
func (d *Driver) Machine() *cpu.Machine { return d.m }

// RunAndCrash starts tr on the one-core system NewDriver built and
// crashes it at crashCycle (see CrashAt). A trace Start refuses is
// returned as its error, unrun.
func (d *Driver) RunAndCrash(tr *trace.Trace, crashCycle sim.Cycle, mode controller.RecoveryMode) (Outcome, error) {
	if err := d.sys.Start(tr); err != nil {
		return Outcome{}, err
	}
	return d.CrashAt(crashCycle, mode)
}

// CrashAt runs the started machine until crashCycle, cuts power,
// recovers with the given mode, and audits every core's accepted
// writes. It returns an error on any ADR-budget, integrity or
// durability violation.
func (d *Driver) CrashAt(crashCycle sim.Cycle, mode controller.RecoveryMode) (Outcome, error) {
	d.m.Eng.RunUntil(crashCycle)

	var out Outcome
	out.CrashCycle = d.m.Eng.Now()
	out.PerCoreAccepted = append([]int(nil), d.counts...)
	for i := range d.accepted {
		out.AcceptedWrites += d.counts[i]
		out.AcceptedLines += len(d.accepted[i])
	}

	crashRep, err := d.m.Ctrl.Crash()
	if err != nil {
		return out, fmt.Errorf("crash drain: %w", err)
	}
	out.Crash = crashRep

	recRep, err := d.m.Ctrl.Recover(mode)
	if err != nil {
		return out, fmt.Errorf("recovery: %w", err)
	}
	out.Recover = recRep

	if err := d.auditDurability(&out); err != nil {
		return out, err
	}
	return out, nil
}

// auditDurability checks, core by core, that every line a core's
// persists were accepted for reads back — through full decryption and
// integrity verification — as either its last accepted value or a
// newer value from that core's own mirror (a volatile-cache eviction
// may legitimately have pushed a fresher version out; per-core heaps
// are disjoint, so "newer" is always same-core).
func (d *Driver) auditDurability(out *Outcome) error {
	ma := d.m.Ctrl.MaSU()
	for i, c := range d.m.Cores {
		for _, addr := range d.order[i] {
			want := d.accepted[i][addr]
			got, _, err := ma.ReadLine(addr)
			if err != nil {
				return fmt.Errorf("core %d: audit read %#x: %w", i, addr, err)
			}
			if got != want {
				if newer, ok := c.Mirror(addr); !ok || got != newer {
					return fmt.Errorf("core %d: line %#x lost its accepted value after recovery", i, addr)
				}
			}
			out.LinesAudited++
		}
	}
	return nil
}

// ResolveLog applies the application-level undo log after recovery: an
// interrupted (active) transaction is rolled back by writing the logged
// old images back through the Ma-SU. It returns whether a rollback
// happened. logBase and capacity describe the workload's TxHeap log.
func (d *Driver) ResolveLog(logBase uint64, capacity int) (bool, error) {
	ma := d.m.Ctrl.MaSU()
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
