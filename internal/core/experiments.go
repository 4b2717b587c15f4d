package core

import (
	"fmt"

	"dolos/internal/controller"
	"dolos/internal/crypt"
	"dolos/internal/masu"
	"dolos/internal/misu"
	"dolos/internal/nvm"
	"dolos/internal/stats"
	"dolos/internal/wpq"
)

// dolosSchemes lists the three Mi-SU designs in figure order.
var dolosSchemes = []controller.Scheme{
	controller.DolosFull, controller.DolosPartial, controller.DolosPost,
}

// Every experiment below follows the executor's three-phase shape
// (DESIGN.md §9): enumerate the full grid as a flat cell list in the
// same nested order the tables print, execute the cells through
// runCells/forEach (parallel up to Options.Parallelism, one independent
// simulated system per cell), then assemble rows from the
// enumeration-ordered results. Output is byte-identical at every
// parallelism setting.

// Fig6 reproduces Figure 6: the motivation CPI comparison between
// placing the security unit before the WPQ (the baseline) and the
// hypothetical post-WPQ placement (the ideal). The paper reports an
// average 2.1x slowdown for the former.
func (r *Runner) Fig6() (*stats.Table, error) {
	cells := make([]cell, 0, 2*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		cells = append(cells,
			cell{w, Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager}},
			cell{w, Spec{Scheme: controller.NonSecureADR, Tree: masu.BMTEager}})
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 6: CPI, security before vs after WPQ (normalized to post-WPQ)",
		Columns: []string{"Pre-WPQ CPI", "Post-WPQ CPI", "Slowdown"},
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		pre, post := res[2*i], res[2*i+1]
		t.AddRow(w, pre.CPI, post.CPI, pre.CPI/post.CPI)
	}
	return t, nil
}

// Fig12 reproduces Figure 12: speedup of the three Mi-SU designs over
// the Pre-WPQ-Secure baseline with the eager-update Merkle tree at
// 1024-byte transactions (paper averages: 1.66 / 1.66 / 1.59).
func (r *Runner) Fig12() (*stats.Table, error) {
	return r.speedupTable(
		"Figure 12: Speedup over Pre-WPQ-Secure (eager BMT, 1024B tx)",
		masu.BMTEager, 1024, 16)
}

// Fig16 reproduces Figure 16: the same comparison under the lazy-update
// Tree of Counters backend (paper averages: 1.044 / 1.079 / 1.071).
func (r *Runner) Fig16() (*stats.Table, error) {
	return r.speedupTable(
		"Figure 16: Speedup over Pre-WPQ-Secure (lazy ToC, 1024B tx)",
		masu.ToCLazy, 1024, 16)
}

func (r *Runner) speedupTable(title string, tree masu.TreeKind, txSize, hwWPQ int) (*stats.Table, error) {
	perW := 1 + len(dolosSchemes)
	cells := make([]cell, 0, perW*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		cells = append(cells, cell{w, Spec{Scheme: controller.PreWPQSecure, Tree: tree, TxSize: txSize, HardwareWPQ: hwWPQ}})
		for _, s := range dolosSchemes {
			cells = append(cells, cell{w, Spec{Scheme: s, Tree: tree, TxSize: txSize, HardwareWPQ: hwWPQ}})
		}
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   title,
		Columns: []string{"Full-WPQ", "Partial-WPQ", "Post-WPQ"},
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		base := res[perW*i]
		row := make([]float64, 0, len(dolosSchemes))
		for j := range dolosSchemes {
			row = append(row, Speedup(base, res[perW*i+1+j]))
		}
		t.AddRow(w, row...)
	}
	return t, nil
}

// Table2 reproduces Table 2: WPQ insertion re-try events per kilo write
// requests for the three Mi-SU designs (eager BMT, 1024B transactions).
func (r *Runner) Table2() (*stats.Table, error) {
	cells := make([]cell, 0, len(dolosSchemes)*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		for _, s := range dolosSchemes {
			cells = append(cells, cell{w, Spec{Scheme: s, Tree: masu.BMTEager}})
		}
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Table 2: WPQ insertion re-try events per kilo write requests",
		Columns: []string{"Full-WPQ", "Partial-WPQ", "Post-WPQ"},
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		row := make([]float64, 0, len(dolosSchemes))
		for j := range dolosSchemes {
			row = append(row, res[len(dolosSchemes)*i+j].RetryPerKWR)
		}
		t.AddRow(w, row...)
	}
	return t, nil
}

// TxSizes is the transaction-size sweep of Figures 13-14.
var TxSizes = []int{128, 256, 512, 1024, 2048}

// Fig13 reproduces Figure 13: retry events per KWR for Partial-WPQ
// across transaction sizes.
func (r *Runner) Fig13() (*stats.Table, error) {
	cells := make([]cell, 0, len(TxSizes)*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		for _, sz := range TxSizes {
			cells = append(cells, cell{w, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, TxSize: sz}})
		}
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 13: Partial-WPQ retry events per KWR vs transaction size",
		Columns: sizeColumns(),
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		row := make([]float64, 0, len(TxSizes))
		for j := range TxSizes {
			row = append(row, res[len(TxSizes)*i+j].RetryPerKWR)
		}
		t.AddRow(w, row...)
	}
	return t, nil
}

// Fig14 reproduces Figure 14: Partial-WPQ speedup over the baseline
// across transaction sizes.
func (r *Runner) Fig14() (*stats.Table, error) {
	cells := make([]cell, 0, 2*len(TxSizes)*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		for _, sz := range TxSizes {
			cells = append(cells,
				cell{w, Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager, TxSize: sz}},
				cell{w, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, TxSize: sz}})
		}
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Figure 14: Partial-WPQ speedup vs transaction size",
		Columns: sizeColumns(),
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		row := make([]float64, 0, len(TxSizes))
		for j := range TxSizes {
			base := res[2*(len(TxSizes)*i+j)]
			fast := res[2*(len(TxSizes)*i+j)+1]
			row = append(row, Speedup(base, fast))
		}
		t.AddRow(w, row...)
	}
	return t, nil
}

func sizeColumns() []string {
	cols := make([]string, 0, len(TxSizes))
	for _, sz := range TxSizes {
		cols = append(cols, fmt.Sprintf("%dB", sz))
	}
	return cols
}

// WPQSizes is the hardware WPQ sweep of Figure 15 (usable Partial-WPQ
// entries 14/28/56/113; the paper quotes 13/28/57/113 from its own
// rounding of the 8/9 rule).
var WPQSizes = []int{16, 32, 64, 128}

// Fig15 reproduces Figure 15: Partial-WPQ speedup as the WPQ grows; the
// baseline uses the full hardware queue at each point. The companion
// retry-rate series (Section 5.3's 201/29/14/11 per KWR) is returned in
// the second table.
func (r *Runner) Fig15() (speedup, retries *stats.Table, err error) {
	cells := make([]cell, 0, 2*len(WPQSizes)*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		for _, hw := range WPQSizes {
			cells = append(cells,
				cell{w, Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager, HardwareWPQ: hw}},
				cell{w, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, HardwareWPQ: hw}})
		}
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, nil, err
	}
	speedup = &stats.Table{
		Title:   "Figure 15: Partial-WPQ speedup vs WPQ size",
		Columns: wpqColumns(),
		Summary: "mean",
	}
	retries = &stats.Table{
		Title:   "Figure 15 companion: Partial-WPQ retry events per KWR vs WPQ size",
		Columns: wpqColumns(),
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		spdRow := make([]float64, 0, len(WPQSizes))
		rtrRow := make([]float64, 0, len(WPQSizes))
		for j := range WPQSizes {
			base := res[2*(len(WPQSizes)*i+j)]
			fast := res[2*(len(WPQSizes)*i+j)+1]
			spdRow = append(spdRow, Speedup(base, fast))
			rtrRow = append(rtrRow, fast.RetryPerKWR)
		}
		speedup.AddRow(w, spdRow...)
		retries.AddRow(w, rtrRow...)
	}
	return speedup, retries, nil
}

func wpqColumns() []string {
	cols := make([]string, 0, len(WPQSizes))
	for _, hw := range WPQSizes {
		cols = append(cols, fmt.Sprintf("%d", misu.PartialWPQ.Entries(hw)))
	}
	return cols
}

// Table3 reproduces Table 3: the Mi-SU storage overhead per design for a
// 16-entry hardware WPQ. Purely structural — no simulation.
func Table3() *stats.Table {
	t := &stats.Table{
		Title:   "Table 3: Storage overhead of Mi-SU (bytes, 16-entry hardware WPQ)",
		Columns: []string{"Full-WPQ", "Partial-WPQ", "Post-WPQ"},
		Format:  "%.0f",
	}
	var eng = crypt.NewEngine([16]byte{}, [16]byte{})
	devless := nvm.NewDevice(nil, 1<<26, 0)
	designs := []misu.Design{misu.FullWPQ, misu.PartialWPQ, misu.PostWPQ}
	rows := [][]float64{{}, {}, {}, {}}
	for _, d := range designs {
		u := misu.New(d, eng, devless, 1<<20, d.Entries(16))
		st := u.Storage()
		rows[0] = append(rows[0], float64(st.PersistentCounterBytes))
		rows[1] = append(rows[1], float64(st.MACRegisterBytes))
		rows[2] = append(rows[2], float64(st.PadBytes))
		rows[3] = append(rows[3], float64(st.TagArrayBytes))
	}
	labels := []string{"Persistent Counter", "MAC registers", "Encryption PADs", "Tag array (volatile)"}
	for i, l := range labels {
		t.AddRow(l, rows[i]...)
	}
	return t
}

// RecoveryEstimate reproduces Section 5.5's Mi-SU recovery-time
// analysis for a 16-entry hardware WPQ: read back the drained image,
// regenerate pads, drain entries through the Ma-SU, refresh pads.
type RecoveryEstimate struct {
	Design       misu.Design
	Entries      int
	ReadCycles   uint64 // image + MAC blocks read back at 600 cyc / 64B
	PadCycles    uint64 // two pad passes at 40 cyc each
	DrainCycles  uint64 // 2100 cyc per live entry (NVM write + Ma-SU)
	TotalCycles  uint64
	Milliseconds float64
}

// Sec55Recovery computes the recovery estimate for each design, fully
// loaded (every usable entry live).
func Sec55Recovery() []RecoveryEstimate {
	const (
		readPer  = 600
		padPer   = 40
		drainPer = 2100
	)
	out := make([]RecoveryEstimate, 0, 3)
	for _, d := range []misu.Design{misu.FullWPQ, misu.PartialWPQ, misu.PostWPQ} {
		n := d.Entries(16)
		blocks := uint64(n) // one 64B read per 72B record, rounded to per-entry reads
		if d != misu.FullWPQ {
			blocks += uint64((n + 7) / 8) // MAC block reads
		}
		e := RecoveryEstimate{
			Design:      d,
			Entries:     n,
			ReadCycles:  blocks * readPer,
			PadCycles:   uint64(n) * padPer * 2,
			DrainCycles: uint64(n) * drainPer,
		}
		e.TotalCycles = e.ReadCycles + e.PadCycles + e.DrainCycles
		e.Milliseconds = float64(e.TotalCycles) / 4e6 // 4 GHz
		out = append(out, e)
	}
	return out
}

// AblateCoalescing compares Partial-WPQ with and without the write-
// coalescing tag array (an extra design-choice ablation beyond the
// paper's figures).
func (r *Runner) AblateCoalescing() (*stats.Table, error) {
	cells := make([]cell, 0, 3*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		cells = append(cells,
			cell{w, Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager}},
			cell{w, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager}},
			cell{w, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, DisableCoalescing: true}})
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Ablation: Partial-WPQ with/without write coalescing (speedup over baseline)",
		Columns: []string{"Coalescing on", "Coalescing off"},
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		base, on, off := res[3*i], res[3*i+1], res[3*i+2]
		t.AddRow(w, Speedup(base, on), Speedup(base, off))
	}
	return t, nil
}

// CounterCacheSizes is the sweep of the counter-cache ablation.
var CounterCacheSizes = []uint64{16 << 10, 32 << 10, 128 << 10, 512 << 10}

// AblateCounterCache sweeps the counter metadata cache capacity under
// Dolos Partial-WPQ, reporting speedup over the Table 1 baseline at each
// point (an extra design ablation: smaller caches mean more 600-cycle
// metadata fetches inside the Ma-SU, which Dolos hides but the baseline
// serializes).
func (r *Runner) AblateCounterCache() (*stats.Table, error) {
	cells := make([]cell, 0, 2*len(CounterCacheSizes)*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		for _, sz := range CounterCacheSizes {
			cells = append(cells,
				cell{w, Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager, CounterCacheBytes: sz}},
				cell{w, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, CounterCacheBytes: sz}})
		}
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	cols := make([]string, 0, len(CounterCacheSizes))
	for _, sz := range CounterCacheSizes {
		cols = append(cols, fmt.Sprintf("%dKB", sz>>10))
	}
	t := &stats.Table{
		Title:   "Ablation: Partial-WPQ speedup vs counter-cache capacity",
		Columns: cols,
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		row := make([]float64, 0, len(CounterCacheSizes))
		for j := range CounterCacheSizes {
			base := res[2*(len(CounterCacheSizes)*i+j)]
			fast := res[2*(len(CounterCacheSizes)*i+j)+1]
			row = append(row, Speedup(base, fast))
		}
		t.AddRow(w, row...)
	}
	return t, nil
}

// BackendIntervals is the Ma-SU pipeline-strength sweep: one new write
// per 1, 2, 5 or 10 MAC stages.
var BackendIntervals = []uint64{160, 320, 800, 1600}

// AblateBackend sweeps the Ma-SU pipeline initiation interval under
// Dolos Partial-WPQ, reporting speedup over an equally-weakened
// baseline. This probes the paper's claim that Dolos composes with any
// memory back-end (Janus-style optimized, or slow and serial): the
// front-end win should persist while the back-end keeps pace, and
// degrade gracefully once the back-end itself becomes the bottleneck.
func (r *Runner) AblateBackend() (*stats.Table, error) {
	cells := make([]cell, 0, 2*len(BackendIntervals)*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		for _, ii := range BackendIntervals {
			cells = append(cells,
				cell{w, Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager, MaSUInterval: ii}},
				cell{w, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, MaSUInterval: ii}})
		}
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	cols := make([]string, 0, len(BackendIntervals))
	for _, ii := range BackendIntervals {
		cols = append(cols, fmt.Sprintf("II=%d", ii))
	}
	t := &stats.Table{
		Title:   "Ablation: Partial-WPQ speedup vs Ma-SU pipeline initiation interval",
		Columns: cols,
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		row := make([]float64, 0, len(BackendIntervals))
		for j := range BackendIntervals {
			base := res[2*(len(BackendIntervals)*i+j)]
			fast := res[2*(len(BackendIntervals)*i+j)+1]
			row = append(row, Speedup(base, fast))
		}
		t.AddRow(w, row...)
	}
	return t, nil
}

// OsirisPeriods is the counter-persist-period sweep.
var OsirisPeriods = []uint64{1, 2, 4, 8, 16}

// AblateOsiris sweeps the Osiris counter persist period on one workload,
// reporting the counter-persist write overhead (extra NVM metadata
// writes per data write) against the recovery probe cost (ECC probes
// needed after a crash). Period 1 is write-through counters (no probing,
// maximal write traffic); larger periods trade persists for probes.
// Each period is an independent run-crash-recover cell on the shared
// cached trace, so the sweep parallelizes like any other.
func (r *Runner) AblateOsiris(workload string) (*stats.Table, error) {
	type osirisPoint struct {
		perWrite float64
		probes   float64
	}
	points := make([]osirisPoint, len(OsirisPeriods))
	// This sweep crashes and recovers each cell, so it always runs the
	// functional provider regardless of the batch FastMode default.
	fr := r.functional()
	err := r.forEach(len(OsirisPeriods), func(i int) error {
		period := OsirisPeriods[i]
		_, sys, err := fr.runSystem(workload, Spec{
			Scheme: controller.DolosPartial, Tree: masu.BMTEager, OsirisPeriod: period,
		})
		if err != nil {
			return fmt.Errorf("osiris period %d: %w", period, err)
		}
		// Normalize by every Ma-SU write (checkpoint load included), so
		// period 1 is exactly one persist per write.
		persists := float64(sys.Ctrl.MaSU().Counters().Persists())
		points[i].perWrite = persists / float64(sys.Ctrl.MaSU().Writes())

		// Crash at quiesce and recover via Osiris to count probes.
		if _, err := sys.Ctrl.Crash(); err != nil {
			return fmt.Errorf("osiris period %d: %w", period, err)
		}
		rep, err := sys.Ctrl.Recover(controller.OsirisRecovery)
		if err != nil {
			return fmt.Errorf("osiris period %d: %w", period, err)
		}
		lines := float64(sys.Ctrl.MaSU().WrittenLines())
		points[i].probes = float64(rep.MaSU.OsirisProbes) / lines
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Ablation: Osiris persist period (%s)", workload),
		Columns: []string{"Period", "Counter persists/write", "Recovery probes/line"},
		Format:  "%.3f",
	}
	for i, period := range OsirisPeriods {
		t.AddRow(fmt.Sprintf("%d", period), float64(period), points[i].perWrite, points[i].probes)
	}
	return t, nil
}

// EADRComparison quantifies how much of the extended-ADR platform's
// benefit Dolos captures within the standard ADR budget (the trade the
// paper's introduction frames): speedups of eADR and of Dolos
// Partial-WPQ over the Pre-WPQ baseline, and Dolos' fraction of the eADR
// gain.
func (r *Runner) EADRComparison() (*stats.Table, error) {
	cells := make([]cell, 0, 3*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		cells = append(cells,
			cell{w, Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager}},
			cell{w, Spec{Scheme: controller.EADRSecure, Tree: masu.BMTEager}},
			cell{w, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager}})
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Extension: Dolos vs extended-ADR (speedup over Pre-WPQ-Secure)",
		Columns: []string{"eADR", "Dolos-Partial", "Fraction of eADR gain"},
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		base, eadr, dolos := res[3*i], res[3*i+1], res[3*i+2]
		se := Speedup(base, eadr)
		sd := Speedup(base, dolos)
		frac := 0.0
		if se > 1 {
			frac = (sd - 1) / (se - 1)
		}
		t.AddRow(w, se, sd, frac)
	}
	return t, nil
}

// WriteAmplification reports NVM write traffic per accepted data write
// across schemes — the endurance angle the secure-NVM literature tracks
// (Anubis' shadow region doubles metadata writes; Dolos adds the drained
// WPQ image only on crashes, so its run-time amplification matches the
// baseline's).
func (r *Runner) WriteAmplification() (*stats.Table, error) {
	schemes := []controller.Scheme{
		controller.PreWPQSecure, controller.DolosPartial, controller.EADRSecure,
	}
	type ampCell struct {
		workload string
		scheme   controller.Scheme
	}
	cells := make([]ampCell, 0, len(schemes)*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		for _, s := range schemes {
			cells = append(cells, ampCell{w, s})
		}
	}
	amp := make([]float64, len(cells))
	err := r.forEach(len(cells), func(i int) error {
		res, m, err := r.runSystem(cells[i].workload, Spec{Scheme: cells[i].scheme, Tree: masu.BMTEager})
		if err != nil {
			return fmt.Errorf("%s under %v: %w", cells[i].workload, cells[i].scheme, err)
		}
		nvmWrites := float64(m.Ctrl.Stats().Counter("masu.nvm_writes").Value())
		amp[i] = nvmWrites / float64(res.WriteRequests)
		return nil
	})
	if err != nil {
		return nil, err
	}
	cols := make([]string, 0, len(schemes))
	for _, s := range schemes {
		cols = append(cols, s.String())
	}
	t := &stats.Table{
		Title:   "Extension: NVM line-writes per accepted data write",
		Columns: cols,
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		t.AddRow(w, amp[len(schemes)*i:len(schemes)*(i+1)]...)
	}
	return t, nil
}

// TailLatency reports per-transaction latency quantiles under the
// baseline and Dolos Partial-WPQ: persist stalls concentrate in the
// tail, so the p99 improvement exceeds the mean speedup.
func (r *Runner) TailLatency() (*stats.Table, error) {
	cells := make([]cell, 0, 2*len(r.opts.Workloads))
	for _, w := range r.opts.Workloads {
		cells = append(cells,
			cell{w, Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager}},
			cell{w, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager}})
	}
	res, err := r.runCells(cells)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Extension: transaction latency (cycles), baseline vs Dolos Partial-WPQ",
		Columns: []string{"base p50", "base p99", "dolos p50", "dolos p99", "p99 speedup"},
		Format:  "%.1f",
	}
	for i, w := range r.opts.Workloads {
		base, dolos := res[2*i], res[2*i+1]
		spd := 0.0
		if dolos.P99TxCycles > 0 {
			spd = base.P99TxCycles / dolos.P99TxCycles
		}
		t.AddRow(w, base.MedianTxCycles, base.P99TxCycles,
			dolos.MedianTxCycles, dolos.P99TxCycles, spd)
	}
	return t, nil
}

// SeedSweep runs Fig 12's Partial-WPQ comparison across `seeds`
// independent workload streams per benchmark and reports mean ± stddev
// of the speedup — the measurement-variance check a single-seed run
// can't provide.
func (r *Runner) SeedSweep(seeds int) (*stats.Table, error) {
	if seeds <= 0 {
		seeds = 3
	}
	speedups := make([]float64, len(r.opts.Workloads)*seeds)
	err := r.forEach(len(speedups), func(i int) error {
		w := r.opts.Workloads[i/seeds]
		s := i % seeds
		// Fresh runner per seed: traces must differ. The sub-runner is
		// serial — the outer executor already owns the worker pool.
		sub := NewRunner(Options{
			Transactions: r.opts.Transactions,
			Workloads:    []string{w},
			Seed:         r.opts.Seed + int64(s)*7919,
			Parallelism:  1,
		})
		base, err := sub.Run(w, Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager})
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", w, s, err)
		}
		fast, err := sub.Run(w, Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager})
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", w, s, err)
		}
		speedups[i] = Speedup(base, fast)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Variance: Partial-WPQ speedup across %d seeds (mean, stddev)", seeds),
		Columns: []string{"Mean speedup", "Stddev", "Min", "Max"},
		Format:  "%.3f",
	}
	for i, w := range r.opts.Workloads {
		h := stats.NewHistogram(w)
		for s := 0; s < seeds; s++ {
			h.Observe(speedups[i*seeds+s])
		}
		t.AddRow(w, h.Mean(), h.StdDev(), h.Min(), h.Max())
	}
	return t, nil
}

// ADRCompliance verifies, per design, that a fully loaded WPQ drains
// within the standard ADR budget (Section 4's key constraint). It
// returns one row per design: bytes flushed and MAC ops on ADR power.
func ADRCompliance() *stats.Table {
	t := &stats.Table{
		Title:   "ADR compliance: drain cost vs standard budget (16-entry hardware WPQ)",
		Columns: []string{"Bytes flushed", "Budget bytes", "MACs on ADR", "Budget MACs"},
		Format:  "%.0f",
	}
	eng := crypt.NewEngine([16]byte{}, [16]byte{})
	budget := controller.StandardADR(16)
	for _, d := range []misu.Design{misu.FullWPQ, misu.PartialWPQ, misu.PostWPQ} {
		dev := nvm.NewDevice(nil, 1<<26, 0)
		u := misu.New(d, eng, dev, 1<<20, d.Entries(16))
		var p [64]byte
		for i := 0; u.CanAccept(uint64(i+1) * 64); i++ {
			u.Protect(uint64(i+1)*64, p)
		}
		st := u.Drain()
		bytes := st.EntriesWritten*wpq.EntryDataSize + st.MACBlocksWritten*64
		t.AddRow(d.String(), float64(bytes), float64(budget.FlushBytes),
			float64(st.DeferredMACs), float64(budget.MACOps))
	}
	return t
}
