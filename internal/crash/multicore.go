package crash

import (
	"fmt"

	"dolos/internal/controller"
	"dolos/internal/masu"
	"dolos/internal/mcore"
	"dolos/internal/sim"
)

// MultiOutcome reports a multi-core crash-recovery experiment. The
// drain accounting is inherently shared: all cores contend for one WPQ
// and one Mi-SU, so the ADR budget audited at crash time covers every
// core's in-flight entries and deferred MACs summed together.
type MultiOutcome struct {
	// CrashCycle is when power was cut.
	CrashCycle sim.Cycle
	// AcceptedWrites / AcceptedLines are summed over cores.
	AcceptedWrites int
	AcceptedLines  int
	// PerCoreAccepted is each core's persist-acceptance count at the
	// crash point (index = core id).
	PerCoreAccepted []int
	// Crash and Recover are the shared controller's reports.
	Crash   controller.CrashReport
	Recover controller.RecoverReport
	// LinesAudited is how many lines were read back and compared,
	// across all cores.
	LinesAudited int
}

// MultiDriver runs crash experiments over a multi-core system: N
// workload instances mid-flight on one shared controller, power cut at
// an arbitrary cycle, and every core's visible state audited after
// recovery.
type MultiDriver struct {
	sys      *mcore.System
	accepted []map[uint64][64]byte
	order    [][]uint64
	counts   []int
}

// NewMultiDriver builds a multi-core system for cfg and cores with
// per-core acceptance tracking installed. Like NewDriver it refuses
// latency-only controller configs with a typed error.
func NewMultiDriver(cfg mcore.Config, cores []mcore.CoreSpec) (*MultiDriver, error) {
	if cfg.Ctrl.FastMode {
		return nil, fmt.Errorf("crash: multi-core driver requires functional crypto: %w", masu.ErrFastMode)
	}
	d := &MultiDriver{
		sys:      mcore.NewSystem(cfg, cores),
		accepted: make([]map[uint64][64]byte, len(cores)),
		order:    make([][]uint64, len(cores)),
		counts:   make([]int, len(cores)),
	}
	for i, c := range d.sys.Cores {
		i := i
		d.accepted[i] = make(map[uint64][64]byte)
		c.OnAccepted = func(addr uint64, data [64]byte) {
			if _, seen := d.accepted[i][addr]; !seen {
				d.order[i] = append(d.order[i], addr)
			}
			d.accepted[i][addr] = data
			d.counts[i]++
		}
	}
	return d, nil
}

// System exposes the underlying multi-core machine.
func (d *MultiDriver) System() *mcore.System { return d.sys }

// RunAndCrash executes all cores until crashCycle, cuts power, recovers
// with the given mode, and audits every core's accepted writes. It
// returns an error on any ADR-budget, integrity or durability
// violation.
func (d *MultiDriver) RunAndCrash(crashCycle sim.Cycle, mode controller.RecoveryMode) (MultiOutcome, error) {
	d.sys.Start()
	d.sys.Eng.RunUntil(crashCycle)

	var out MultiOutcome
	out.CrashCycle = d.sys.Eng.Now()
	out.PerCoreAccepted = append([]int(nil), d.counts...)
	for i := range d.accepted {
		out.AcceptedWrites += d.counts[i]
		out.AcceptedLines += len(d.accepted[i])
	}

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

// auditDurability checks, core by core, that every line a core's
// persists were accepted for reads back — through full decryption and
// integrity verification — as either the last accepted value or a
// newer value from that core's own mirror (per-core heaps are
// disjoint, so "newer" is always same-core).
func (d *MultiDriver) auditDurability(out *MultiOutcome) error {
	ma := d.sys.Ctrl.MaSU()
	for i, c := range d.sys.Cores {
		for _, addr := range d.order[i] {
			want := d.accepted[i][addr]
			got, _, err := ma.ReadLine(addr)
			if err != nil {
				return fmt.Errorf("core %d: audit read %#x: %w", i, addr, err)
			}
			if got != want {
				if newer, ok := c.Mirror(addr); ok && got == newer {
					out.LinesAudited++
					continue
				}
				return fmt.Errorf("core %d: line %#x lost its accepted value after recovery", i, addr)
			}
			out.LinesAudited++
		}
	}
	return nil
}
