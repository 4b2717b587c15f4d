package core

import (
	"fmt"
	"io"

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

// Experiment is one named experiment of the evaluation, as dolos-bench
// runs it. Tables runs it and returns its tables in print order; Text is
// set instead for an experiment whose output is not a table, and writes
// that output to w.
type Experiment struct {
	Name   string
	Tables func(r *Runner) ([]*stats.Table, error)
	Text   func(r *Runner, w io.Writer) error

	// cells lists, for the run's workloads, one cell per workload,
	// payload, core count and OoO window the experiment simulates: the
	// spec fields a run's options can put out of bounds (CheckCell). It
	// is nil for an experiment that simulates nothing.
	cells func(workloads []string) []Cell
}

// CheckExperiments reports the first cell of exps that CheckCell refuses
// under opts (its workloads, all when nil, and transaction count), so a
// caller can refuse the run before any experiment starts: a payload of
// Figures 13 and 14's TxSizes or a core count of the contention grids
// can overflow a heap or the data region that the default cell fits.
func CheckExperiments(opts Options, exps []Experiment) error {
	opts = opts.withDefaults()
	for _, e := range exps {
		if e.cells == nil {
			continue
		}
		for _, c := range e.cells(opts.Workloads) {
			if _, _, err := CheckCell(opts, c.Workload, c.Spec); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
	}
	return nil
}

// Experiments lists every experiment in the order `dolos-bench -exp
// all` runs them. cores (nil = ContentionCores) and window configure the
// multi-core contention grids.
func Experiments(cores []int, window int) []Experiment {
	one := func(run func(r *Runner) (*stats.Table, error)) func(*Runner) ([]*stats.Table, error) {
		return func(r *Runner) ([]*stats.Table, error) {
			t, err := run(r)
			if err != nil {
				return nil, err
			}
			return []*stats.Table{t}, nil
		}
	}
	static := func(build func() *stats.Table) func(*Runner) ([]*stats.Table, error) {
		return func(*Runner) ([]*stats.Table, error) { return []*stats.Table{build()}, nil }
	}
	// each runs specs on the run's workloads, on runs them on one.
	each := func(specs ...Spec) func([]string) []Cell {
		return func(workloads []string) []Cell {
			var cells []Cell
			for _, w := range workloads {
				for _, s := range specs {
					cells = append(cells, Cell{w, s})
				}
			}
			return cells
		}
	}
	on := func(workload string, specs ...Spec) func([]string) []Cell {
		return func([]string) []Cell { return each(specs...)([]string{workload}) }
	}
	sizes := make([]Spec, len(TxSizes))
	for j, sz := range TxSizes {
		sizes[j].TxSize = sz
	}
	if len(cores) == 0 {
		cores = ContentionCores
	}
	machines := make([]Spec, len(cores))
	for j, n := range cores {
		machines[j] = Spec{Cores: n, OoOWindow: window}
	}
	schemeContention := Spec{Cores: 2, OoOWindow: window}
	return []Experiment{
		{Name: "fig6", Tables: one((*Runner).Fig6), cells: each(Spec{})},
		{Name: "fig12", Tables: one((*Runner).Fig12), cells: each(Spec{})},
		{Name: "table2", Tables: one((*Runner).Table2), cells: each(Spec{})},
		{Name: "fig13", Tables: one((*Runner).Fig13), cells: each(sizes...)},
		{Name: "fig14", Tables: one((*Runner).Fig14), cells: each(sizes...)},
		{Name: "fig15", Tables: func(r *Runner) ([]*stats.Table, error) {
			spd, rtr, err := r.Fig15()
			if err != nil {
				return nil, err
			}
			return []*stats.Table{spd, rtr}, nil
		}, cells: each(Spec{})},
		{Name: "fig16", Tables: one((*Runner).Fig16), cells: each(Spec{})},
		{Name: "table3", Tables: static(Table3)},
		{Name: "recovery", Text: func(_ *Runner, w io.Writer) error {
			fmt.Fprintln(w, "Section 5.5: Mi-SU recovery time estimates")
			for _, e := range Sec55Recovery() {
				fmt.Fprintf(w, "%-18s entries=%-3d read=%-6d pads=%-5d drain=%-6d total=%d cycles (%.4f ms)\n",
					e.Design, e.Entries, e.ReadCycles, e.PadCycles, e.DrainCycles, e.TotalCycles, e.Milliseconds)
			}
			fmt.Fprintln(w)
			return nil
		}},
		{Name: "adr", Tables: static(ADRCompliance)},
		{Name: "ablate-coalesce", Tables: one((*Runner).AblateCoalescing), cells: each(Spec{})},
		{Name: "ablate-cc", Tables: one((*Runner).AblateCounterCache), cells: each(Spec{})},
		{Name: "ablate-backend", Tables: one((*Runner).AblateBackend), cells: each(Spec{})},
		{Name: "ablate-osiris", Tables: one(func(r *Runner) (*stats.Table, error) { return r.AblateOsiris("Hashmap") }), cells: on("Hashmap", Spec{})},
		{Name: "eadr", Tables: one((*Runner).EADRComparison), cells: each(Spec{})},
		{Name: "writes", Tables: one((*Runner).WriteAmplification), cells: each(Spec{})},
		{Name: "tail", Tables: one((*Runner).TailLatency), cells: each(Spec{})},
		{Name: "variance", Tables: one(func(r *Runner) (*stats.Table, error) { return r.SeedSweep(3) }), cells: each(Spec{})},
		{Name: "contention", Tables: one(func(r *Runner) (*stats.Table, error) {
			return r.Contention("Hashmap", cores, window)
		}), cells: on("Hashmap", machines...)},
		// The related-work comparison over the whole scheme registry:
		// single-core runtime and recovery, then the contended grid.
		{Name: "schemes", Tables: func(r *Runner) ([]*stats.Table, error) {
			cmp, err := r.SchemeComparison()
			if err != nil {
				return nil, err
			}
			cont, err := r.SchemeContention("Hashmap", schemeContention.Cores, window)
			if err != nil {
				return nil, err
			}
			return []*stats.Table{cmp, cont}, nil
		}, cells: func(workloads []string) []Cell {
			return append(each(Spec{})(workloads), Cell{"Hashmap", schemeContention})
		}},
		{Name: "validate", Text: func(r *Runner, w io.Writer) error {
			claims, allPassed, err := r.Validate()
			if err != nil {
				return err
			}
			fmt.Fprint(w, FormatClaims(claims))
			if !allPassed {
				return fmt.Errorf("reproduction claims failed")
			}
			fmt.Fprintln(w, "\nall qualitative claims of the evaluation reproduce")
			return nil
		}, cells: each(sizes...)}, // Figures 6 to 16; TxSizes holds the default
	}
}

// eager returns scheme s on the eager BMT, the backend of every sweep
// but Figure 16's.
func eager(s controller.Scheme) Spec { return Spec{Scheme: s, Tree: masu.BMTEager} }

// Every table experiment below runs its grid through sweep: it lists
// the specs of one workload's row, sweep runs them on every workload
// (parallel up to Options.Parallelism, one independent simulated system
// per cell) and hands back the results indexed [workload][spec], from
// which the rows are read in order. Output is byte-identical at every
// parallelism setting (DESIGN.md §9).

// workloadRows runs specs on every workload of the batch and adds one
// row per workload to t, computed by row from that workload's results
// in spec order.
func (r *Runner) workloadRows(t *stats.Table, specs []Spec,
	row func(res []RunResult) []float64) (*stats.Table, error) {
	res, err := r.sweep(r.opts.Workloads, specs)
	if err != nil {
		return nil, err
	}
	for i, w := range r.opts.Workloads {
		t.AddRow(w, row(res[i])...)
	}
	return t, nil
}

// partialPairs expands a one-parameter sweep into the specs of one row:
// every point under the Pre-WPQ-Secure baseline, then every point under
// Dolos Partial-WPQ, both on the eager BMT. halves splits such a row.
func partialPairs(points []Spec) []Spec {
	specs := make([]Spec, 0, 2*len(points))
	for _, s := range []controller.Scheme{controller.PreWPQSecure, controller.DolosPartial} {
		for _, p := range points {
			p.Scheme, p.Tree = s, masu.BMTEager
			specs = append(specs, p)
		}
	}
	return specs
}

// halves splits a row of partialPairs results into its baseline and
// Partial-WPQ halves, each in point order.
func halves(res []RunResult) (base, partial []RunResult) {
	n := len(res) / 2
	return res[:n], res[n:]
}

// speedups returns each candidate's speedup over base.
func speedups(base RunResult, cands []RunResult) []float64 {
	out := make([]float64, len(cands))
	for j, c := range cands {
		out[j] = Speedup(base.Result, c.Result)
	}
	return out
}

// pairedSpeedups returns, for a row of partialPairs results, each
// point's Partial-WPQ speedup over its baseline.
func pairedSpeedups(res []RunResult) []float64 {
	base, partial := halves(res)
	out := make([]float64, len(base))
	for j := range base {
		out[j] = Speedup(base[j].Result, partial[j].Result)
	}
	return out
}

// retryRates returns each result's WPQ retries per kilo write requests.
func retryRates(res []RunResult) []float64 {
	out := make([]float64, len(res))
	for j, rr := range res {
		out[j] = rr.Result.RetryPerKWR
	}
	return out
}

// Fig6 reproduces Figure 6: the motivation CPI comparison between
// placing the security unit before the WPQ (the baseline) and the
// hypothetical post-WPQ placement (the ideal). The paper reports an
// average 2.1x slowdown for the former.
func (r *Runner) Fig6() (*stats.Table, error) {
	return r.workloadRows(&stats.Table{
		Title:   "Figure 6: CPI, security before vs after WPQ (normalized to post-WPQ)",
		Columns: []string{"Pre-WPQ CPI", "Post-WPQ CPI", "Slowdown"},
		Summary: "mean",
	}, []Spec{eager(controller.PreWPQSecure), eager(controller.NonSecureADR)},
		func(res []RunResult) []float64 {
			pre, post := res[0].Result, res[1].Result
			return []float64{pre.CPI, post.CPI, pre.CPI / post.CPI}
		})
}

// Fig12 reproduces Figure 12: speedup of the three Mi-SU designs over
// the Pre-WPQ-Secure baseline with the eager-update Merkle tree at
// 1024-byte transactions (paper averages: 1.66 / 1.66 / 1.59).
func (r *Runner) Fig12() (*stats.Table, error) {
	return r.speedupTable("Figure 12: Speedup over Pre-WPQ-Secure (eager BMT, 1024B tx)", masu.BMTEager)
}

// Fig16 reproduces Figure 16: the same comparison under the lazy-update
// Tree of Counters backend (paper averages: 1.044 / 1.079 / 1.071).
func (r *Runner) Fig16() (*stats.Table, error) {
	return r.speedupTable("Figure 16: Speedup over Pre-WPQ-Secure (lazy ToC, 1024B tx)", masu.ToCLazy)
}

// speedupTable is Figures 12 and 16 on one backend: each Mi-SU design's
// speedup over the Pre-WPQ-Secure baseline at the default 1024 B
// transactions and 16-entry hardware WPQ.
func (r *Runner) speedupTable(title string, tree masu.TreeKind) (*stats.Table, error) {
	specs := []Spec{{Scheme: controller.PreWPQSecure, Tree: tree}}
	for _, s := range dolosSchemes {
		specs = append(specs, Spec{Scheme: s, Tree: tree})
	}
	return r.workloadRows(&stats.Table{
		Title:   title,
		Columns: []string{"Full-WPQ", "Partial-WPQ", "Post-WPQ"},
		Summary: "mean",
	}, specs, func(res []RunResult) []float64 { return speedups(res[0], res[1:]) })
}

// Table2 reproduces Table 2: WPQ insertion re-try events per kilo write
// requests for the three Mi-SU designs (eager BMT, 1024B transactions).
func (r *Runner) Table2() (*stats.Table, error) {
	specs := make([]Spec, len(dolosSchemes))
	for j, s := range dolosSchemes {
		specs[j] = eager(s)
	}
	return r.workloadRows(&stats.Table{
		Title:   "Table 2: WPQ insertion re-try events per kilo write requests",
		Columns: []string{"Full-WPQ", "Partial-WPQ", "Post-WPQ"},
		Summary: "mean",
	}, specs, retryRates)
}

// TxSizes is the transaction-size sweep of Figures 13-14.
var TxSizes = []int{128, 256, 512, 1024, 2048}

// Fig13 reproduces Figure 13: retry events per KWR for Partial-WPQ
// across transaction sizes.
func (r *Runner) Fig13() (*stats.Table, error) {
	specs := make([]Spec, len(TxSizes))
	cols := make([]string, len(TxSizes))
	for j, sz := range TxSizes {
		specs[j] = Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, TxSize: sz}
		cols[j] = fmt.Sprintf("%dB", sz)
	}
	return r.workloadRows(&stats.Table{
		Title:   "Figure 13: Partial-WPQ retry events per KWR vs transaction size",
		Columns: cols,
		Summary: "mean",
	}, specs, retryRates)
}

// Fig14 reproduces Figure 14: Partial-WPQ speedup over the baseline
// across transaction sizes.
func (r *Runner) Fig14() (*stats.Table, error) {
	points := make([]Spec, len(TxSizes))
	cols := make([]string, len(TxSizes))
	for j, sz := range TxSizes {
		points[j].TxSize = sz
		cols[j] = fmt.Sprintf("%dB", sz)
	}
	return r.workloadRows(&stats.Table{
		Title:   "Figure 14: Partial-WPQ speedup vs transaction size",
		Columns: cols,
		Summary: "mean",
	}, partialPairs(points), pairedSpeedups)
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
	points := make([]Spec, len(WPQSizes))
	cols := make([]string, len(WPQSizes))
	for j, hw := range WPQSizes {
		points[j].HardwareWPQ = hw
		cols[j] = fmt.Sprintf("%d", misu.PartialWPQ.Entries(hw))
	}
	res, err := r.sweep(r.opts.Workloads, partialPairs(points))
	if err != nil {
		return nil, nil, err
	}
	speedup = &stats.Table{
		Title:   "Figure 15: Partial-WPQ speedup vs WPQ size",
		Columns: cols,
		Summary: "mean",
	}
	retries = &stats.Table{
		Title:   "Figure 15 companion: Partial-WPQ retry events per KWR vs WPQ size",
		Columns: cols,
		Summary: "mean",
	}
	for i, w := range r.opts.Workloads {
		_, partial := halves(res[i])
		speedup.AddRow(w, pairedSpeedups(res[i])...)
		retries.AddRow(w, retryRates(partial)...)
	}
	return speedup, retries, nil
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
		u := misu.New(d, eng, devless, 1<<20, d.Entries(controller.DefaultWPQ))
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
		n := d.Entries(controller.DefaultWPQ)
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
	return r.workloadRows(&stats.Table{
		Title:   "Ablation: Partial-WPQ with/without write coalescing (speedup over baseline)",
		Columns: []string{"Coalescing on", "Coalescing off"},
		Summary: "mean",
	}, []Spec{
		eager(controller.PreWPQSecure),
		eager(controller.DolosPartial),
		{Scheme: controller.DolosPartial, Tree: masu.BMTEager, DisableCoalescing: true},
	}, func(res []RunResult) []float64 { return speedups(res[0], res[1:]) })
}

// CounterCacheSizes is the sweep of the counter-cache ablation.
var CounterCacheSizes = []uint64{16 << 10, 32 << 10, 128 << 10, 512 << 10}

// AblateCounterCache sweeps the counter metadata cache capacity under
// Dolos Partial-WPQ, reporting speedup over the Table 1 baseline at each
// point (an extra design ablation: smaller caches mean more 600-cycle
// metadata fetches inside the Ma-SU, which Dolos hides but the baseline
// serializes).
func (r *Runner) AblateCounterCache() (*stats.Table, error) {
	points := make([]Spec, len(CounterCacheSizes))
	cols := make([]string, len(CounterCacheSizes))
	for j, sz := range CounterCacheSizes {
		points[j].CounterCacheBytes = sz
		cols[j] = fmt.Sprintf("%dKB", sz>>10)
	}
	return r.workloadRows(&stats.Table{
		Title:   "Ablation: Partial-WPQ speedup vs counter-cache capacity",
		Columns: cols,
		Summary: "mean",
	}, partialPairs(points), pairedSpeedups)
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
	points := make([]Spec, len(BackendIntervals))
	cols := make([]string, len(BackendIntervals))
	for j, ii := range BackendIntervals {
		points[j].MaSUInterval = ii
		cols[j] = fmt.Sprintf("II=%d", ii)
	}
	return r.workloadRows(&stats.Table{
		Title:   "Ablation: Partial-WPQ speedup vs Ma-SU pipeline initiation interval",
		Columns: cols,
		Summary: "mean",
	}, partialPairs(points), pairedSpeedups)
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
	// Bespoke, not sweep: each cell's machine is crashed after its run.
	err := r.forEach(len(OsirisPeriods), func(i int) error {
		period := OsirisPeriods[i]
		sys, err := r.Machine(workload, Spec{
			Scheme: controller.DolosPartial, Tree: masu.BMTEager, OsirisPeriod: period,
		})
		if err != nil {
			return fmt.Errorf("osiris period %d: %w", period, err)
		}
		sys.Run()
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
	return r.workloadRows(&stats.Table{
		Title:   "Extension: Dolos vs extended-ADR (speedup over Pre-WPQ-Secure)",
		Columns: []string{"eADR", "Dolos-Partial", "Fraction of eADR gain"},
		Summary: "mean",
	}, []Spec{
		eager(controller.PreWPQSecure), eager(controller.EADRSecure), eager(controller.DolosPartial),
	}, func(res []RunResult) []float64 {
		s := speedups(res[0], res[1:])
		se, sd := s[0], s[1]
		frac := 0.0
		if se > 1 {
			frac = (sd - 1) / (se - 1)
		}
		return []float64{se, sd, frac}
	})
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
	specs := make([]Spec, len(schemes))
	cols := make([]string, len(schemes))
	for j, s := range schemes {
		specs[j] = eager(s)
		cols[j] = s.String()
	}
	return r.workloadRows(&stats.Table{
		Title:   "Extension: NVM line-writes per accepted data write",
		Columns: cols,
		Summary: "mean",
	}, specs, func(res []RunResult) []float64 {
		amp := make([]float64, len(res))
		for j, rr := range res {
			nvmWrites := float64(rr.Stats.Counter("masu.nvm_writes").Value())
			amp[j] = nvmWrites / float64(rr.Result.WriteRequests)
		}
		return amp
	})
}

// TailLatency reports per-transaction latency quantiles under the
// baseline and Dolos Partial-WPQ: persist stalls concentrate in the
// tail, so the p99 improvement exceeds the mean speedup.
func (r *Runner) TailLatency() (*stats.Table, error) {
	return r.workloadRows(&stats.Table{
		Title:   "Extension: transaction latency (cycles), baseline vs Dolos Partial-WPQ",
		Columns: []string{"base p50", "base p99", "dolos p50", "dolos p99", "p99 speedup"},
		Format:  "%.1f",
	}, []Spec{eager(controller.PreWPQSecure), eager(controller.DolosPartial)},
		func(res []RunResult) []float64 {
			base, dolos := res[0].Result, res[1].Result
			spd := 0.0
			if dolos.P99TxCycles > 0 {
				spd = base.P99TxCycles / dolos.P99TxCycles
			}
			return []float64{base.MedianTxCycles, base.P99TxCycles,
				dolos.MedianTxCycles, dolos.P99TxCycles, spd}
		})
}

// SeedSweep runs Fig 12's Partial-WPQ comparison across `seeds`
// independent workload streams per benchmark and reports mean ± stddev
// of the speedup — the measurement-variance check a single-seed run
// can't provide.
func (r *Runner) SeedSweep(seeds int) (*stats.Table, error) {
	if seeds <= 0 {
		seeds = 3
	}
	// Bespoke, not sweep: every seed needs a runner of its own.
	spd := make([][]float64, len(r.opts.Workloads))
	for i := range spd {
		spd[i] = make([]float64, seeds)
	}
	err := r.forEach(len(spd)*seeds, func(i int) error {
		wi, s := i/seeds, i%seeds
		w := r.opts.Workloads[wi]
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
		spd[wi][s] = Speedup(base, fast)
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
		for _, v := range spd[i] {
			h.Observe(v)
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
	budget := controller.StandardADR(controller.DefaultWPQ)
	for _, d := range []misu.Design{misu.FullWPQ, misu.PartialWPQ, misu.PostWPQ} {
		dev := nvm.NewDevice(nil, 1<<26, 0)
		u := misu.New(d, eng, dev, 1<<20, d.Entries(controller.DefaultWPQ))
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
