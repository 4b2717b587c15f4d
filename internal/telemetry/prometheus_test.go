package telemetry

import (
	"regexp"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition output byte-for-byte
// against a hand-written golden: HELP/TYPE blocks, section order
// (counters, gauges, histograms), sorted names within a section, name
// sanitization, and the summary + min/max gauge rendering of
// histograms.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("service_jobs_total").Add(3)
	reg.Counter("wpq.coalesce.hits").Add(42)
	reg.Gauge("queue.depth").Set(2.5)
	h := reg.CycleHist("persist.cycles")
	h.Observe(10)
	h.Observe(30)

	var b strings.Builder
	if err := WritePrometheus(&b, Snapshot(nil, reg)); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP service_jobs_total service_jobs_total
# TYPE service_jobs_total counter
service_jobs_total 3
# HELP wpq_coalesce_hits wpq.coalesce.hits
# TYPE wpq_coalesce_hits counter
wpq_coalesce_hits 42
# HELP queue_depth queue.depth
# TYPE queue_depth gauge
queue_depth 2.5
# HELP persist_cycles persist.cycles
# TYPE persist_cycles summary
persist_cycles_count 2
persist_cycles_sum 40
# HELP persist_cycles_min persist.cycles minimum
# TYPE persist_cycles_min gauge
persist_cycles_min 10
# HELP persist_cycles_max persist.cycles maximum
# TYPE persist_cycles_max gauge
persist_cycles_max 30
`
	if got := b.String(); got != want {
		t.Errorf("exposition output differs from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// promLine matches one valid exposition sample line: a sanitized metric
// name, a space, and a decimal / float / signed-infinity / NaN value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	` (NaN|[+-]Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

// ValidPrometheus asserts every line of an exposition rendering is
// either a HELP/TYPE comment or a well-formed sample. The service tests
// validate the live /metrics endpoint against the same line grammar.
func ValidPrometheus(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
	}
}

func TestWritePrometheusValidFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Inc()
	reg.Gauge("g").Set(-1.25e9)
	reg.CycleHist("h") // empty histogram: min/max render but must stay parseable
	var b strings.Builder
	if err := WritePrometheus(&b, Snapshot(nil, reg)); err != nil {
		t.Fatal(err)
	}
	ValidPrometheus(t, b.String())
}

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"wpq.coalesce.hits": "wpq_coalesce_hits",
		"già-utf8 name":     "gi__utf8_name",
		"0starts.digit":     "_0starts_digit",
		"ok_name:sub":       "ok_name:sub",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusNilRegistry pins the nil-safety contract shared by
// every registry method: a nil registry's snapshot renders as empty
// output.
func TestWritePrometheusNilRegistry(t *testing.T) {
	var reg *Registry
	var b strings.Builder
	if err := WritePrometheus(&b, Snapshot(nil, reg)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry rendered %q", b.String())
	}
}
