package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"dolos/internal/controller"
)

func TestMedianAndTailQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the functions must sort
		}
		return xs
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100, 90},  // the p90 has exactly 10 samples beyond it
		{200, 180}, // p90 by nearest rank
		{107, 97},  // rank ceil(96.3) = 97
		{50, 40},   // too few for the p90: the highest rank with 10 beyond
		{12, 6},    // never below the median
		{1, 1},
	} {
		xs := seq(c.n)
		got := tailQuantile(xs, 0.9, tailBeyond)
		if got != c.want {
			t.Errorf("tailQuantile(1..%d, 0.9) = %v, want %v", c.n, got, c.want)
		}
		beyond := 0
		for _, x := range xs {
			if x > got {
				beyond++
			}
		}
		if c.n >= 2*tailBeyond+1 && beyond < tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value, want >= %d", c.n, beyond, tailBeyond)
		}
	}
}

func TestCellSchemeAndSeed(t *testing.T) {
	w := workload{schemes: []controller.Scheme{controller.PreWPQSecure, controller.DolosPartial, controller.Phoenix}}
	want := []struct {
		sch  controller.Scheme
		seed int64
	}{
		{controller.PreWPQSecure, 7000}, {controller.DolosPartial, 7000}, {controller.Phoenix, 7000},
		{controller.PreWPQSecure, 7001}, {controller.DolosPartial, 7001}, {controller.Phoenix, 7001},
		{controller.PreWPQSecure, 7002},
	}
	for i, c := range want {
		sch, seed := w.cell(7, i)
		if sch != c.sch || seed != c.seed {
			t.Errorf("cell %d = (%v, %d), want (%v, %d)", i, sch, seed, c.sch, c.seed)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// Standard-library crypto counts toward its caller.
		{[]string{"crypto/sha256.blockSHANI", "crypto/sha256.(*Digest).Write", "dolos/internal/crypt.(*Engine).NodeMAC", "dolos/internal/bmt.(*Tree).AppendPathUpdate"}, "crypt"},
		// Helper packages count toward their caller too.
		{[]string{"dolos/internal/stats.(*Histogram).Observe", "dolos/internal/controller.(*Controller).PersistWrite"}, "controller"},
		{[]string{"runtime.mallocgc", "dolos/internal/pmem.(*Heap).Store", "dolos/internal/whisper.Hashmap.Generate"}, "workload"},
		{[]string{"dolos/internal/sim.(*Pipeline[...]).Push"}, "sim"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.runCell", "main.main"}, "runtime"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// The fixture is the CPU profile of a short traced hashmap-eager run,
// with 124 samples outside the checks. Its expected shares were computed
// independently from the stacks `go tool pprof -traces` prints.
const fixtureSamples = 124

var fixtureShares = map[string]float64{
	"crypt": 48.3871, "workload": 14.5161, "sim": 8.0645, "cpu": 5.6452,
	"bmt": 4.0323, "cache": 3.2258, "controller": 3.2258, "masu": 3.2258,
	"nvm": 3.2258, "wpq": 3.2258, "ctr": 2.4194, "runtime": 0.8065,
	"misu": 0, "mcore": 0, "toc": 0,
}

func TestProfileSharesFixture(t *testing.T) {
	f, err := os.Open("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, n, err := profileShares(f)
	if err != nil {
		t.Fatal(err)
	}
	if n != fixtureSamples {
		t.Errorf("counted %d samples, want %d", n, fixtureSamples)
	}
	sum := 0.0
	for _, l := range shareLayers {
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("host shares sum to %v%%, want 100%% ± 1", sum)
	}
	for l, want := range fixtureShares {
		if math.Abs(shares[l]-want) > 0.01 {
			t.Errorf("host_share.%s = %.3f%%, want %.3f%%", l, shares[l], want)
		}
	}
}

// tiny returns the workload shrunk for tests: 100 transactions per core,
// enough for read-mostly YCSB to flush some lines.
func tiny(w workload) workload {
	w.txns = 100
	return w
}

func TestReferenceCheckRejectsDoctoredRecord(t *testing.T) {
	w := tiny(workloads[0])
	good := runCell(w, 2, 0, nil, nil)
	if good.err != nil {
		t.Fatal(good.err)
	}
	if d := compareRecord(good.record, good.record); len(d) != 0 {
		t.Fatalf("record differs from itself: %v", d)
	}

	doctored := good.record
	doctored.Cycles++
	if c := runCell(w, 2, 0, &doctored, nil); c.err == nil {
		t.Error("a reference with different cycles passed the check")
	}

	doctored = good.record
	doctored.Metrics.Counters = map[string]uint64{}
	for k, v := range good.record.Metrics.Counters {
		doctored.Metrics.Counters[k] = v + 1
	}
	if d := compareRecord(good.record, doctored); len(d) == 0 {
		t.Error("a reference with different counters passed the check")
	}

	// A counter the reference predates is not a wrong answer, and
	// neither is a different event count.
	older := good.record
	older.Metrics.Counters = map[string]uint64{}
	for k, v := range good.record.Metrics.Counters {
		if k != "wpq.read_hits" {
			older.Metrics.Counters[k] = v
		}
	}
	older.EventsProcessed++
	if d := compareRecord(good.record, older); len(d) != 0 {
		t.Errorf("a reference lacking a counter failed the check: %v", d)
	}
}

// The first cell of every workload, at full size and the reference seed,
// must reproduce the committed reference record.
func TestCommittedReference(t *testing.T) {
	for _, w := range workloads {
		ref, err := loadReference(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != refRounds*len(w.schemes) {
			t.Errorf("%s: %d reference records, want %d", w.name, len(ref), refRounds*len(w.schemes))
			continue
		}
		if c := runCell(w, refSeed, 0, &ref[0], nil); c.err != nil {
			t.Errorf("%s: %v", w.name, c.err)
		}
	}
}

type manifest struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesBenchmark(t *testing.T) {
	m := loadManifest(t)
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		seen := make(map[string]bool)
		for _, e := range listed {
			seen[e.Name] = true
			if u, ok := units[e.Name]; !ok || u != e.Unit {
				t.Errorf("%s metric %s (%s) in BENCHMARK.json: benchmark reports unit %q", kind, e.Name, e.Unit, u)
			}
		}
		for n := range units {
			if !seen[n] {
				t.Errorf("%s metric %s is not in BENCHMARK.json", kind, n)
			}
		}
	}
	check("end-to-end", m.EndToEnd, endToEndUnits)
	check("per-layer", m.PerLayer, perLayerUnits)
	var names []string
	for _, w := range m.Workload {
		names = append(names, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
}

// A tiny run of every workload, one round of cells, untraced and traced:
// every metric is reported and no cell fails.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			plain, err := runEndToEnd(w, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, 2, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				res   result
				units map[string]string
			}{{plain, endToEndUnits}, {traced, perLayerUnits}} {
				if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted < len(w.schemes) {
					t.Errorf("correct=%v failed=%d attempted=%d", c.res.Correct, c.res.Failed, c.res.Attempted)
				}
				var missing []string
				for n := range c.units {
					m, ok := c.res.Metrics[n]
					if !ok || m.Unit != c.units[n] || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						missing = append(missing, n)
					}
				}
				sort.Strings(missing)
				if len(missing) > 0 {
					t.Errorf("metrics missing or not finite: %v", missing)
				}
			}
			for _, n := range []string{"cell_s_p50", "setup_s", "sim_ops_per_s", "sim_cycles_per_tx", "alloc_mb_per_cell"} {
				if plain.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, plain.Metrics[n].Value)
				}
			}
			if traced.meta["profile_samples"].(int) > 0 {
				sum := 0.0
				for _, l := range shareLayers {
					sum += traced.Metrics["host_share."+l].Value
				}
				if math.Abs(sum-100) > 1 {
					t.Errorf("host shares sum to %v%%", sum)
				}
			}
		})
	}
}
