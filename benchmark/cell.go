package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"dolos/internal/cliutil"
	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/telemetry"
	"dolos/internal/trace"
)

// runChunk is how many events the loop dispatches between checks for the
// end of the trace, which splits the event loop into trace execution
// (sim.run) and the controller's drain of what is still queued after the
// last trace op (controller.drain).
const runChunk = 4096

// cell is one complete simulation and what was measured on it.
type cell struct {
	index  int
	scheme controller.Scheme
	seed   int64

	// Host time of each phase: trace generation; NewSystem + Start
	// (checkpoint-image load); event loop up to the last trace op; the
	// rest of the event loop + Quiesce + Collect; the untimed check.
	generate, start, run, drain, check time.Duration
	allocBytes                         uint64
	scale                              float64 // host time -> reference-host time

	ops, initLines int // trace ops and checkpoint lines, all cores
	events         uint64
	result         cpu.Result
	counts         map[string]float64 // simulated per-layer counts
	record         telemetry.RunRecord
	err            error // nil when every correctness check passed
}

// setup is the host time before the first simulated event.
func (c *cell) setup() time.Duration { return c.generate + c.start }

// loop is the host time of the event loop (Engine.Run + Quiesce + Collect).
func (c *cell) loop() time.Duration { return c.run + c.drain }

func (c *cell) total() time.Duration { return c.setup() + c.loop() }

// runCell runs cell i of the workload and checks its output against the
// trace, the integrity audit and ref (the reference record, or nil). When
// spans is non-nil each phase is recorded as a span.
func runCell(w workload, seed int64, i int, ref *telemetry.RunRecord, spans *spanLog) cell {
	sch, cseed := w.cell(seed, i)
	c := cell{index: i, scheme: sch, seed: cseed}
	cfg := w.config(sch)

	a0 := heapAllocBytes()
	t0 := time.Now()
	trs := w.traces(cseed)
	t1 := time.Now()
	m := w.build(cfg, cseed, trs)
	m.start()
	t2 := time.Now()
	for !m.done() && m.eng.Run(runChunk) > 0 {
	}
	t3 := time.Now()
	m.eng.Run(0)
	finished := m.done()
	m.ctrl.Quiesce()
	c.result = m.collect()
	t4 := time.Now()
	c.allocBytes = heapAllocBytes() - a0
	c.generate, c.start, c.run, c.drain = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)

	c.events = m.eng.Processed()
	for _, tr := range trs {
		c.ops += len(tr.Ops)
		c.initLines += len(tr.InitImage)
	}
	c.counts = cellCounts(m, c.result, c.events, c.ops, c.initLines)
	c.record = cliutil.BuildRunRecord(c.result, cfg.EffectiveTree(), trs[0].TxSize, cseed,
		c.events, c.loop(), m.ctrl.Stats(), nil)

	// The check runs under a profiler label so the traced run's CPU
	// profile can leave it out of the per-layer host shares.
	pprof.Do(context.Background(), pprof.Labels(labelKey, labelCheck), func(context.Context) {
		if !finished {
			c.err = errors.New("trace execution deadlocked (fence never satisfied)")
		} else {
			c.err = checkCell(w, m, &c, trs, ref)
		}
	})
	t5 := time.Now()
	c.check = t5.Sub(t4)

	if spans != nil {
		root := spans.add(-1, "cell", c.index, t0, t5)
		spans.add(root, "whisper.generate", c.index, t0, t1)
		spans.add(root, "cpu.start", c.index, t1, t2)
		spans.add(root, "sim.run", c.index, t2, t3)
		spans.add(root, "controller.drain", c.index, t3, t4)
		spans.add(root, "check", c.index, t4, t5)
	}
	if c.err != nil {
		c.err = fmt.Errorf("cell %d (%s, seed %d): %w", i, sch, cseed, c.err)
	}
	return c
}

// Profiler label marking samples taken during a cell's untimed check.
const (
	labelKey   = "bench"
	labelCheck = "check"
)

// checkCell verifies a finished cell: every trace op and transaction
// executed, the record matches the committed reference (when given), and
// on functional runs the Ma-SU's integrity audit verifies every written
// line.
func checkCell(w workload, m machine, c *cell, trs []*trace.Trace, ref *telemetry.RunRecord) error {
	txns := 0
	for _, tr := range trs {
		txns += tr.Transactions
	}
	if c.result.Ops != c.ops {
		return fmt.Errorf("executed %d ops, the trace has %d", c.result.Ops, c.ops)
	}
	if c.result.Transactions != txns {
		return fmt.Errorf("executed %d transactions, the trace has %d", c.result.Transactions, txns)
	}
	if ref != nil {
		if diffs := compareRecord(c.record, *ref); len(diffs) > 0 {
			if len(diffs) > 3 {
				diffs = append(diffs[:3], fmt.Sprintf("... %d more", len(diffs)-3))
			}
			return fmt.Errorf("record differs from the reference: %s", strings.Join(diffs, "; "))
		}
	}
	if w.fast {
		return nil // latency-only crypto: there is nothing to audit
	}
	lines, err := m.ctrl.MaSU().Audit()
	if err != nil {
		return fmt.Errorf("integrity audit: %w", err)
	}
	if lines == 0 {
		return errors.New("integrity audit verified no lines")
	}
	return nil
}

// compareRecord lists the differences between a cell's record and its
// reference under cliutil.CompareBenchRecords, which ignores the host-side
// fields. events_processed is ignored too, so a change that dispatches
// fewer events for the same simulated result is not a wrong answer, and
// so are fields the reference lacks, so a later counter or record field
// does not invalidate it.
func compareRecord(cur, ref telemetry.RunRecord) []string {
	cur.EventsProcessed, ref.EventsProcessed = 0, 0
	var diffs []string
	for _, d := range cliutil.CompareBenchRecords([]telemetry.RunRecord{cur}, []telemetry.RunRecord{ref}).Diffs {
		if !strings.HasSuffix(d, "absent in baseline") {
			diffs = append(diffs, d)
		}
	}
	return diffs
}

// heapAllocBytes is the cumulative number of bytes the program has
// allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
