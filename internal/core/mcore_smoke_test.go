package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/masu"
	"dolos/internal/telemetry"
)

// TestCoresOneMatchesLegacy pins the routing guarantee of the Cores
// axis: Spec{Cores: 1} runs the same one-core machine as the zero-value
// spec, so its result — and the full controller metrics snapshot behind
// it — is bit-for-bit the zero-value spec's. TestGoldenRecords' Cores=0
// keys depend on this.
func TestCoresOneMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	spec := Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager}
	specOne := spec
	specOne.Cores = 1

	r := NewRunner(Options{Transactions: 60, Seed: 1, Parallelism: 1})
	a, err := r.RunCell(ctx, "Hashmap", spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunCell(ctx, "Hashmap", specOne)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatalf("Cores=1 result diverges from legacy:\n%+v\n%+v", a.Result, b.Result)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts diverge: %d vs %d", a.Events, b.Events)
	}
	snap := func(rr RunResult) []byte {
		var buf bytes.Buffer
		if err := telemetry.WriteJSON(&buf, telemetry.Snapshot(rr.Stats, nil)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(snap(a), snap(b)) {
		t.Fatal("Cores=1 metrics snapshot diverges from legacy")
	}
	if a.Result.Cores != 0 {
		t.Fatalf("legacy-path result must leave Cores zero (omitempty), got %d", a.Result.Cores)
	}
}

// TestMCoreSmoke is the `make mcore-smoke` target: a small Cores>1 grid
// run serially and at parallelism 4 (under -race in the make target)
// must produce byte-identical deterministic output — results, engine
// event counts and the full metrics snapshots. Each multi-core cell is
// still one single-clock-domain system, so executor parallelism must
// not be observable.
func TestMCoreSmoke(t *testing.T) {
	cells := []Cell{
		{Workload: "Hashmap", Spec: Spec{Scheme: controller.PreWPQSecure, Tree: masu.BMTEager, Cores: 2}},
		{Workload: "Hashmap", Spec: Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, Cores: 2}},
		{Workload: "Btree", Spec: Spec{Scheme: controller.DolosPartial, Tree: masu.BMTEager, Cores: 2, OoOWindow: 4}},
	}
	run := func(parallelism int) ([]RunResult, [][]byte) {
		r := NewRunner(Options{Transactions: 40, Seed: 1, Parallelism: parallelism})
		out, err := r.RunGrid(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		snaps := make([][]byte, len(out))
		for i := range out {
			var buf bytes.Buffer
			if err := telemetry.WriteJSON(&buf, telemetry.Snapshot(out[i].Stats, nil)); err != nil {
				t.Fatal(err)
			}
			snaps[i] = buf.Bytes()
			out[i].Wall = 0    // host-side, varies by design
			out[i].Stats = nil // compared via snaps
		}
		return out, snaps
	}
	serRes, serSnaps := run(1)
	parRes, parSnaps := run(4)
	for i := range cells {
		if !reflect.DeepEqual(serRes[i], parRes[i]) {
			t.Errorf("cell %d: parallel result diverges from serial:\n%+v\n%+v",
				i, serRes[i], parRes[i])
		}
		if !bytes.Equal(serSnaps[i], parSnaps[i]) {
			t.Errorf("cell %d: parallel metrics snapshot diverges from serial", i)
		}
		if serRes[i].Result.Cores != 2 || len(serRes[i].Result.PerCore) != 2 {
			t.Errorf("cell %d: expected 2-core result, got Cores=%d PerCore=%d",
				i, serRes[i].Result.Cores, len(serRes[i].Result.PerCore))
		}
	}
}

// TestContentionTableShape runs the contention sweep at a tiny scale
// and pins its row/column shape plus the single-core sanity anchor
// (Dolos ahead at 1 core).
func TestContentionTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("contention sweep is not short")
	}
	r := NewRunner(Options{Transactions: 50, Seed: 1})
	tbl, err := r.Contention("Hashmap", []int{1, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 2 || len(tbl.Columns) != 6 {
		t.Fatalf("table shape = %d rows × %d cols, want 2×6", tbl.Rows(), len(tbl.Columns))
	}
	speedup1 := tbl.Cell(0, 2)
	speedup4 := tbl.Cell(1, 2)
	if speedup1 <= 1 {
		t.Fatalf("single-core Dolos speedup %.2f, want > 1", speedup1)
	}
	if speedup4 >= speedup1 {
		t.Fatalf("contention should erode the advantage: 1-core %.2fx vs 4-core %.2fx",
			speedup1, speedup4)
	}
}
