package cliutil

import (
	"strings"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/masu"
	"dolos/internal/scheme"
	"dolos/internal/telemetry"
)

func TestParseScheme(t *testing.T) {
	for name, want := range map[string]controller.Scheme{
		"ideal":         controller.NonSecureADR,
		"baseline":      controller.PreWPQSecure,
		"dolos-full":    controller.DolosFull,
		"dolos-partial": controller.DolosPartial,
		"dolos-post":    controller.DolosPost,
		"eadr":          controller.EADRSecure,
		"triad-nvm":     controller.TriadNVM,
		"supermem":      controller.SuperMem,
		"phoenix":       controller.Phoenix,
		"stum":          controller.STUM,
	} {
		got, err := ParseScheme(name)
		if err != nil || got != want {
			t.Fatalf("ParseScheme(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestParseSchemeAliases(t *testing.T) {
	// Go identifiers, figure labels and arbitrary hyphenation/case all
	// resolve to the same scheme.
	for name, want := range map[string]controller.Scheme{
		"DolosPartial":      controller.DolosPartial,
		"Dolos-Partial-WPQ": controller.DolosPartial,
		"dolos_partial":     controller.DolosPartial,
		"DOLOS PARTIAL WPQ": controller.DolosPartial,
		"DolosFull":         controller.DolosFull,
		"Dolos-Full-WPQ":    controller.DolosFull,
		"DolosPost":         controller.DolosPost,
		"Dolos-Post-WPQ":    controller.DolosPost,
		"NonSecureADR":      controller.NonSecureADR,
		"NonSecure-ADR":     controller.NonSecureADR,
		"PreWPQSecure":      controller.PreWPQSecure,
		"Pre-WPQ-Secure":    controller.PreWPQSecure,
		"EADRSecure":        controller.EADRSecure,
		"eADR-Secure":       controller.EADRSecure,
		"eadr_secure":       controller.EADRSecure,
	} {
		got, err := ParseScheme(name)
		if err != nil || got != want {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
}

func TestParseTree(t *testing.T) {
	if k, err := ParseTree("eager"); err != nil || k != masu.BMTEager {
		t.Fatal("eager parse failed")
	}
	if k, err := ParseTree("lazy"); err != nil || k != masu.ToCLazy {
		t.Fatal("lazy parse failed")
	}
	if _, err := ParseTree("x"); err == nil {
		t.Fatal("unknown tree accepted")
	}
}

func TestSchemeNamesSorted(t *testing.T) {
	names := SchemeNames()
	if len(names) != len(scheme.All()) {
		t.Fatalf("names = %v, registry has %d entries", names, len(scheme.All()))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("unsorted: %v", names)
		}
	}
}

// TestSchemeSetsMatchRegistry is the one-source-of-truth check: the CLI
// names, the AllSchemes enumeration and the registry must agree exactly,
// and every name must round-trip through ParseScheme (which the service
// API also uses) back to its registry ID.
func TestSchemeSetsMatchRegistry(t *testing.T) {
	byName := make(map[string]controller.Scheme)
	for _, e := range scheme.All() {
		byName[e.Name] = e.ID
	}
	names := SchemeNames()
	if len(names) != len(byName) {
		t.Fatalf("SchemeNames %v does not cover the registry %v", names, byName)
	}
	for _, n := range names {
		want, ok := byName[n]
		if !ok {
			t.Fatalf("CLI name %q not in the registry", n)
		}
		got, err := ParseScheme(n)
		if err != nil || got != want {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", n, got, err, want)
		}
		// The figure label is also accepted and resolves identically.
		if got2, err := ParseScheme(want.String()); err != nil || got2 != want {
			t.Fatalf("ParseScheme(label %q) = %v, %v", want.String(), got2, err)
		}
	}
	ids := AllSchemes()
	if len(ids) != len(scheme.All()) {
		t.Fatalf("AllSchemes returned %d of %d registry entries", len(ids), len(scheme.All()))
	}
	for i, e := range scheme.All() {
		if ids[i] != e.ID {
			t.Fatalf("AllSchemes[%d] = %v, want %v", i, ids[i], e.ID)
		}
	}
}

func TestDemoKeysDeterministicDistinct(t *testing.T) {
	a1, m1 := DemoKeys("x")
	a2, m2 := DemoKeys("x")
	if a1 != a2 || m1 != m2 {
		t.Fatal("demo keys not deterministic")
	}
	b1, _ := DemoKeys("y")
	if a1 == b1 {
		t.Fatal("different labels share keys")
	}
	if a1 == m1 {
		t.Fatal("AES and MAC keys identical")
	}
}

// benchRecord builds a small but fully populated RunRecord for the
// comparator tests.
func benchRecord() telemetry.RunRecord {
	return telemetry.RunRecord{
		Scheme: "Dolos-Partial-WPQ", Workload: "Hashmap", Tree: "BMT-eager",
		Transactions: 200, TxSize: 1024, Seed: 1,
		Ops: 1000, Cycles: 123456, CyclesPerTx: 617.28, CPI: 1.5,
		WriteRequests: 400, RetryEvents: 3, RetryPerKWR: 7.5,
		WallSeconds: 1.0, EventsProcessed: 50_000, EventsPerSecond: 50_000,
		Metrics: telemetry.MetricsSnapshot{
			Counters: map[string]uint64{"wpq.inserted": 400, "masu.drained": 400},
			Histograms: map[string]telemetry.HistogramStats{
				"wpq.interarrival_cycles": {Count: 399, Sum: 1e6, Mean: 2506.3, Min: 1, Max: 9000},
			},
		},
	}
}

func TestCompareBenchRecordsIdentical(t *testing.T) {
	cur, base := benchRecord(), benchRecord()
	// Host-side throughput may differ arbitrarily without breaking
	// bit-identity.
	cur.WallSeconds = 0.25
	cur.EventsPerSecond = 200_000
	d := CompareBenchRecords([]telemetry.RunRecord{cur}, []telemetry.RunRecord{base})
	if !d.Identical() {
		t.Fatalf("identical grids reported diffs: %v", d.Diffs)
	}
}

func TestCompareBenchRecordsFindsDivergence(t *testing.T) {
	cur, base := benchRecord(), benchRecord()
	cur.Cycles++                                 // timing divergence
	cur.Metrics.Counters["masu.drained"] = 401   // counter divergence
	delete(cur.Metrics.Counters, "wpq.inserted") // registration divergence
	d := CompareBenchRecords([]telemetry.RunRecord{cur}, []telemetry.RunRecord{base})
	if len(d.Diffs) != 3 {
		t.Fatalf("diffs = %v, want 3 entries", d.Diffs)
	}
	for _, want := range []string{".cycles", "masu.drained", "wpq.inserted"} {
		found := false
		for _, diff := range d.Diffs {
			if strings.Contains(diff, want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("no diff mentions %q: %v", want, d.Diffs)
		}
	}
}

func TestCompareBenchRecordsCountMismatch(t *testing.T) {
	d := CompareBenchRecords([]telemetry.RunRecord{benchRecord()}, nil)
	if d.Identical() {
		t.Fatal("record-count mismatch not reported")
	}
}
