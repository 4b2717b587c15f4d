package core

import (
	"fmt"

	"dolos/internal/cpu"
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
	points := make([]Spec, len(coreCounts))
	for j, n := range coreCounts {
		points[j] = Spec{Cores: n, OoOWindow: window}
	}
	res, err := r.sweep([]string{workload}, partialPairs(points))
	if err != nil {
		return nil, err
	}
	baseRes, dolosRes := halves(res[0])
	t := &stats.Table{
		Title: fmt.Sprintf("Multi-core contention: %s, shared controller (window %d)",
			workload, max(window, 1)),
		Columns: []string{"base c/tx", "dolos c/tx", "speedup",
			"dolos rt/KWR", "base rt/KWR", "dolos stall%"},
	}
	for i, n := range coreCounts {
		base, dolos := baseRes[i].Result, dolosRes[i].Result
		t.AddRow(fmt.Sprintf("%d cores", n),
			base.CyclesPerTx, dolos.CyclesPerTx,
			base.CyclesPerTx/dolos.CyclesPerTx,
			dolos.RetryPerKWR, base.RetryPerKWR, stallShare(dolos))
	}
	return t, nil
}

// stallShare is the percentage of core-cycles res spent parked at
// fences. Fence stalls are summed over cores; each core can stall for at
// most the run's end cycle, so they are normalized by cores × cycles.
func stallShare(res cpu.Result) float64 {
	if res.Cycles == 0 {
		return 0
	}
	return 100 * float64(res.FenceStalls) / (float64(res.Cycles) * float64(max(res.Cores, 1)))
}
