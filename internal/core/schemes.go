package core

// Registry-driven scheme comparison: every entry in internal/scheme —
// the Dolos designs and the related-work competitors (Triad-NVM,
// SuperMem, Phoenix, STUM) — through the same grid, with no
// hand-listed scheme slice anywhere. Adding a registry entry adds a
// row here, a cell in the fast-mode differential suite, and a row in
// the contention grid for free.

import (
	"fmt"

	"dolos/internal/masu"
	"dolos/internal/scheme"
	"dolos/internal/stats"
)

// registrySpecs returns one Spec per registered scheme, in registry
// (ID) order, with the standard single-core configuration. Schemes
// that pin their integrity backend (Phoenix) get it applied by the
// controller; the spec itself carries the default.
func registrySpecs() []Spec {
	entries := scheme.All()
	specs := make([]Spec, len(entries))
	for i, e := range entries {
		specs[i] = Spec{Scheme: e.ID, Tree: masu.BMTEager}
	}
	return specs
}

// SchemeComparison reproduces the related-work comparison: every
// registered scheme over the workload set, reporting mean cycles per
// transaction, speedup over the Pre-WPQ-Secure baseline, retry
// pressure, and the recovery-cycle estimate for schemes that model a
// recovery procedure (0 for the rest). The runtime/recovery tension is
// the point: SuperMem and Triad-NVM run faster than the eager baseline
// but pay for it at reboot; full persistence recovers in O(1).
func (r *Runner) SchemeComparison() (*stats.Table, error) {
	entries := scheme.All()
	specs := registrySpecs()
	nW := len(r.opts.Workloads)
	cells := make([]cell, 0, len(specs)*nW)
	for _, sp := range specs {
		for _, w := range r.opts.Workloads {
			cells = append(cells, cell{w, sp})
		}
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}

	// Mean c/tx per scheme, plus the baseline row for the speedup column.
	mean := make([]float64, len(entries))
	recovery := make([]float64, len(entries))
	baseline := -1
	for i, e := range entries {
		var sumC, sumR float64
		for j := 0; j < nW; j++ {
			sumC += res[i*nW+j].CyclesPerTx
			sumR += float64(res[i*nW+j].RecoveryCycles)
		}
		mean[i] = sumC / float64(nW)
		recovery[i] = sumR / float64(nW)
		if e.Name == "baseline" {
			baseline = i
		}
	}
	if baseline < 0 {
		return nil, fmt.Errorf("scheme registry has no baseline entry")
	}

	t := &stats.Table{
		Title:   "Scheme comparison: registry schemes, eager default backend",
		Columns: []string{"c/tx (mean)", "vs baseline", "rt/KWR", "recovery cyc"},
	}
	for i, e := range entries {
		var sumRt float64
		for j := 0; j < nW; j++ {
			sumRt += res[i*nW+j].RetryPerKWR
		}
		t.AddRow(e.Label, mean[i], mean[baseline]/mean[i],
			sumRt/float64(nW), recovery[i])
	}
	return t, nil
}

// SchemeContention runs every registered scheme through the
// multi-core machine's shared-controller arbiter at one contended core count — the
// multi-core counterpart of SchemeComparison. The baseline/Dolos
// head-to-head sweep over core counts stays in Contention; this grid
// answers "which pipeline holds up under sharing" for the whole
// registry without hand-listing.
func (r *Runner) SchemeContention(workload string, cores, window int) (*stats.Table, error) {
	if cores < 1 {
		cores = 2
	}
	entries := scheme.All()
	cells := make([]cell, 0, len(entries))
	for _, sp := range registrySpecs() {
		sp.Cores = cores
		sp.OoOWindow = window
		cells = append(cells, cell{workload, sp})
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Scheme contention: %s × %d cores, shared controller (window %d)",
			workload, cores, max(window, 1)),
		Columns: []string{"c/tx", "rt/KWR", "stall%", "recovery cyc"},
	}
	for i, e := range entries {
		stallShare := 0.0
		if res[i].Cycles > 0 {
			denom := float64(res[i].Cycles) * float64(max(res[i].Cores, 1))
			stallShare = 100 * float64(res[i].FenceStalls) / denom
		}
		t.AddRow(e.Label, res[i].CyclesPerTx, res[i].RetryPerKWR,
			stallShare, float64(res[i].RecoveryCycles))
	}
	return t, nil
}
