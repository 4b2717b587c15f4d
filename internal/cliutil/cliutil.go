// Package cliutil holds the flag-parsing helpers shared by the Dolos
// command-line tools: scheme and tree-kind names, and key material
// derivation for demo binaries.
package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/scheme"
	"dolos/internal/stats"
	"dolos/internal/telemetry"
)

// SchemeNames returns the accepted scheme flag values, sorted. Derived
// from the central registry: a scheme registered in internal/scheme
// automatically appears in every CLI and the service API.
func SchemeNames() []string { return scheme.Names() }

// AllSchemes returns every registered scheme ID in registry (ID) order —
// the one enumeration the grids, crash suites and differential tests
// iterate so new registry entries are covered without hand-listing.
func AllSchemes() []controller.Scheme {
	entries := scheme.All()
	out := make([]controller.Scheme, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.ID)
	}
	return out
}

// ParseScheme resolves a CLI scheme name. Besides the flag names it
// accepts the Go identifiers and the paper's figure labels in any
// hyphenation or case (the registry's alias table).
func ParseScheme(name string) (controller.Scheme, error) {
	e, err := scheme.Parse(name)
	if err != nil {
		return 0, err
	}
	return e.ID, nil
}

// ParseTree resolves a CLI integrity-backend name ("eager" or "lazy").
func ParseTree(name string) (masu.TreeKind, error) {
	switch name {
	case "eager":
		return masu.BMTEager, nil
	case "lazy":
		return masu.ToCLazy, nil
	}
	return 0, fmt.Errorf("unknown tree %q (want eager or lazy)", name)
}

// DemoKeys returns deterministic AES/MAC keys for the demo binaries.
// Real deployments would use processor-fused secrets; determinism keeps
// CLI runs reproducible.
func DemoKeys(label string) (aes, mac [16]byte) {
	copy(aes[:], label+"-aes-key-0123456")
	copy(mac[:], label+"-mac-key-0123456")
	return aes, mac
}

// BuildRunRecord assembles the machine-readable record of one finished
// run — the shared shape dolos-sim -json, the service's results and the
// repository benchmark's reference records all emit. reg may be nil (no
// probe attached). events is the engine's dispatched-event count and
// wall the host-side run duration; together they yield the
// simulator-throughput fields.
func BuildRunRecord(res cpu.Result, tree masu.TreeKind, txSize int, seed int64,
	events uint64, wall time.Duration,
	set *stats.Set, reg *telemetry.Registry) telemetry.RunRecord {
	eps := 0.0
	if wall > 0 {
		eps = float64(events) / wall.Seconds()
	}
	var perCore []telemetry.CoreRecord
	for _, pc := range res.PerCore {
		perCore = append(perCore, telemetry.CoreRecord{
			Core:             pc.Core,
			Workload:         pc.Workload,
			Seed:             pc.Seed,
			Cycles:           uint64(pc.Cycles),
			Transactions:     pc.Transactions,
			Ops:              pc.Ops,
			FenceStallCycles: uint64(pc.FenceStalls),
			AcceptedPersists: pc.AcceptedPersists,
			ArbGrants:        pc.ArbGrants,
			ArbWaitCycles:    pc.ArbWaitCycles,
		})
	}
	return telemetry.RunRecord{
		Scheme:           res.Scheme,
		Workload:         res.Workload,
		Tree:             tree.String(),
		Transactions:     res.Transactions,
		TxSize:           txSize,
		Seed:             seed,
		Ops:              res.Ops,
		Cycles:           uint64(res.Cycles),
		CyclesPerTx:      res.CyclesPerTx,
		CPI:              res.CPI,
		FenceStallCycles: uint64(res.FenceStalls),
		WriteRequests:    res.WriteRequests,
		RetryEvents:      res.RetryEvents,
		RetryPerKWR:      res.RetryPerKWR,
		WPQReadHits:      res.WPQReadHits,
		MemReads:         res.MemReads,
		MeanInterarrival: res.MeanInterarrival,
		WPQMeanOccupancy: res.WPQMeanOccupancy,
		MedianTxCycles:   res.MedianTxCycles,
		P99TxCycles:      res.P99TxCycles,
		RecoveryCycles:   res.RecoveryCycles,
		Cores:            res.Cores,
		OoOWindow:        res.OoOWindow,
		Prefetches:       res.Prefetches,
		PerCore:          perCore,
		WallSeconds:      wall.Seconds(),
		EventsProcessed:  events,
		EventsPerSecond:  eps,
		Metrics:          telemetry.Snapshot(set, reg),
	}
}

// BenchDelta is the result of comparing two lists of RunRecords field by
// field. Diffs lists every deterministic-field divergence (empty =
// bit-identical simulation output).
type BenchDelta struct {
	// Diffs holds one "path: current != baseline" line per divergent
	// deterministic field, in record order then field order.
	Diffs []string
}

// Identical reports whether every deterministic field matched.
func (d BenchDelta) Identical() bool { return len(d.Diffs) == 0 }

// hostFields are the RunRecord JSON fields measured on the host rather
// than in the simulated model; they differ run to run by design and are
// excluded from bit-identity comparison (events_processed stays in: the
// engine's dispatch count is deterministic).
var hostFields = []string{"wall_seconds", "sim_events_per_sec"}

// CompareBenchRecords compares two lists of RunRecords field by field.
// Records pair by position (grids assemble records in enumeration
// order); every JSON field of each record — including the nested
// counters and histogram summaries — must match exactly, except
// hostFields. Numbers are compared as JSON literals, so the check
// is exact for uint64 counters and bit-exact for floats.
func CompareBenchRecords(cur, base []telemetry.RunRecord) BenchDelta {
	var d BenchDelta
	if len(cur) != len(base) {
		d.Diffs = append(d.Diffs, fmt.Sprintf("record count: %d != %d (baseline)", len(cur), len(base)))
		return d
	}
	for i := range cur {
		label := fmt.Sprintf("[%d] %s/%s", i, cur[i].Scheme, cur[i].Workload)
		a, errA := comparableRecord(cur[i])
		b, errB := comparableRecord(base[i])
		if errA != nil || errB != nil {
			d.Diffs = append(d.Diffs, fmt.Sprintf("%s: re-encode failed: %v %v", label, errA, errB))
			continue
		}
		diffJSON(label, a, b, &d.Diffs)
	}
	return d
}

// comparableRecord round-trips a record through its JSON encoding into a
// generic tree with numbers kept as literals, minus the host-side fields.
func comparableRecord(rec telemetry.RunRecord) (any, error) {
	buf, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if m, ok := v.(map[string]any); ok {
		for _, f := range hostFields {
			delete(m, f)
		}
	}
	return v, nil
}

// diffJSON walks two generic JSON trees in parallel, appending one line
// per divergent leaf (map keys visited in sorted order, so output is
// deterministic).
func diffJSON(path string, a, b any, out *[]string) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			*out = append(*out, fmt.Sprintf("%s: object vs %T (baseline)", path, b))
			return
		}
		keys := make([]string, 0, len(av)+len(bv))
		seen := make(map[string]bool, len(av)+len(bv))
		for k := range av {
			keys = append(keys, k)
			seen[k] = true
		}
		for k := range bv {
			if !seen[k] {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			sub := path + "." + k
			ak, aok := av[k]
			bk, bok := bv[k]
			switch {
			case !aok:
				*out = append(*out, fmt.Sprintf("%s: absent (baseline has %v)", sub, bk))
			case !bok:
				*out = append(*out, fmt.Sprintf("%s: %v absent in baseline", sub, ak))
			default:
				diffJSON(sub, ak, bk, out)
			}
		}
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			*out = append(*out, fmt.Sprintf("%s: array shape differs from baseline", path))
			return
		}
		for i := range av {
			diffJSON(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i], out)
		}
	default:
		if fmt.Sprint(a) != fmt.Sprint(b) {
			*out = append(*out, fmt.Sprintf("%s: %v != %v (baseline)", path, a, b))
		}
	}
}
