package core

import (
	"fmt"

	"dolos/internal/controller"
	"dolos/internal/masu"
	"dolos/internal/stats"
)

// ContentionCores is the default core-count sweep of the contention
// experiment.
var ContentionCores = []int{1, 2, 4, 8}

// Contention sweeps core count for one workload under the
// security-before-WPQ baseline and Dolos Partial-WPQ sharing a single
// controller (cpu.Machine). One row per core count:
//
//	base c/tx    — baseline cycles per transaction (slowest core's end
//	               cycle over total transactions)
//	dolos c/tx   — same for Dolos Partial-WPQ
//	speedup      — base/dolos; >1 means Dolos still wins
//	dolos rt/KWR — Dolos's WPQ-full retries per thousand write requests
//	base rt/KWR  — the baseline's
//	stall share  — fraction of Dolos core-cycles spent parked at fences
//	               (summed fence-stall cycles over cores × end cycle)
//
// The headline physics this table exposes: Dolos's single-core win is a
// *latency* win (persists ack at Mi-SU speed), so as contending cores
// saturate the shared WPQ the deferred Ma-SU drain becomes the
// bottleneck — retries per KWR explode, fences park on a full queue,
// and the advantage shrinks or inverts while the baseline, already
// paying full security latency per persist, is barely queue-bound.
// See EXPERIMENTS.md ("Multi-core contention").
func (r *Runner) Contention(workload string, coreCounts []int, window int) (*stats.Table, error) {
	if len(coreCounts) == 0 {
		coreCounts = ContentionCores
	}
	cells := make([]cell, 0, 2*len(coreCounts))
	for _, n := range coreCounts {
		cells = append(cells,
			cell{workload, Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager, Cores: n, OoOWindow: window}},
			cell{workload, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, Cores: n, OoOWindow: window}})
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Multi-core contention: %s, shared controller (window %d)",
			workload, max(window, 1)),
		Columns: []string{"base c/tx", "dolos c/tx", "speedup",
			"dolos rt/KWR", "base rt/KWR", "dolos stall%"},
	}
	for i, n := range coreCounts {
		base, dolos := res[2*i], res[2*i+1]
		stallShare := 0.0
		if dolos.Cycles > 0 {
			// Fence stalls are summed over cores; each core can stall for
			// at most the run's end cycle, so normalize by cores×cycles.
			denom := float64(dolos.Cycles) * float64(max(dolos.Cores, 1))
			stallShare = 100 * float64(dolos.FenceStalls) / denom
		}
		t.AddRow(fmt.Sprintf("%d cores", n),
			base.CyclesPerTx, dolos.CyclesPerTx,
			base.CyclesPerTx/dolos.CyclesPerTx,
			dolos.RetryPerKWR, base.RetryPerKWR, stallShare)
	}
	return t, nil
}
