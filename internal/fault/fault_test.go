package fault

import (
	"strings"
	"testing"
	"time"

	"dolos/internal/telemetry"
)

// TestParseRoundTrip: a spec parses to the rules it spells, and the
// injector's String() renders them back in spec syntax.
func TestParseRoundTrip(t *testing.T) {
	rules, err := Parse("job-panic:0.2, queue-full:0.1,cell-latency:0.5:2ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
	if rules[2].Point != CellLatency || rules[2].Rate != 0.5 || rules[2].Delay != 2*time.Millisecond {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	in, err := New(1, rules...)
	if err != nil {
		t.Fatal(err)
	}
	s := in.String()
	for _, want := range []string{"cell-latency:0.5:2ms", "job-panic:0.2", "queue-full:0.1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"",                   // empty
		"job-panic",          // no rate
		"job-panic:lots",     // non-numeric rate
		"job-panic:1.5",      // rate out of range (caught by New)
		"job-panic:NaN",      // not a probability (caught by New)
		"job-panic:-Inf",     // rate out of range (caught by New)
		"turbo-mode:0.5",     // unknown point (caught by New)
		"cell-latency:0.5:x", // bad delay
		"job-panic:0.1:2ms:extra",
	} {
		rules, err := Parse(spec)
		if err == nil {
			_, err = New(1, rules...)
		}
		if err == nil {
			t.Errorf("spec %q: no error", spec)
		}
	}
}

// FuzzParse feeds FromSpec arbitrary specs: it must never panic, and an
// injector it accepts arms only known points with a rate in [0, 1] and
// a non-negative delay, and its String() parses back to the same rules.
// The seeds include "job-panic:NaN", which New once accepted as a rate
// that always fires.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"job-panic:0.2,queue-full:0.1,cell-latency:0.5:2ms",
		"job-panic:NaN",
		"job-panic:1.5",
		"drain-stall:1:-1s",
		"cache-corrupt:0,cache-corrupt:1",
		",,",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := FromSpec(1, spec)
		if err != nil {
			return
		}
		rules := in.Rules()
		for _, r := range rules {
			if !(r.Rate >= 0 && r.Rate <= 1) || r.Delay < 0 {
				t.Fatalf("spec %q: accepted rule %+v", spec, r)
			}
		}
		again, err := FromSpec(1, in.String())
		if err != nil {
			t.Fatalf("spec %q: String() %q does not parse: %v", spec, in.String(), err)
		}
		if got := again.Rules(); len(got) != len(rules) {
			t.Fatalf("spec %q: round trip gave %v, want %v", spec, got, rules)
		} else {
			for i := range got {
				if got[i] != rules[i] {
					t.Fatalf("spec %q: round trip gave %v, want %v", spec, got, rules)
				}
			}
		}
	})
}

// TestDeterministicSequence: two injectors with the same seed and rules
// produce the identical fire/miss sequence — the property the chaos
// suite's pinned seeds rely on.
func TestDeterministicSequence(t *testing.T) {
	mk := func() *Injector {
		in, err := New(42, Rule{Point: JobPanic, Rate: 0.3}, Rule{Point: QueueFull, Rate: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		p := JobPanic
		if i%2 == 1 {
			p = QueueFull
		}
		if a.Fire(p) != b.Fire(p) {
			t.Fatalf("draw %d diverged between same-seed injectors", i)
		}
	}
	ca, cb := a.Counts(), b.Counts()
	if ca[JobPanic] != cb[JobPanic] || ca[QueueFull] != cb[QueueFull] {
		t.Fatalf("counts diverged: %v vs %v", ca, cb)
	}
	if ca[JobPanic] == 0 || ca[QueueFull] == 0 {
		t.Fatalf("rates 0.3/0.7 over 500 draws each fired %v times", ca)
	}
}

// TestRateExtremes: rate 1 always fires, rate 0 and unarmed points
// never do, and a nil injector is permanently off.
func TestRateExtremes(t *testing.T) {
	in, err := New(1,
		Rule{Point: JobPanic, Rate: 1},
		Rule{Point: QueueFull, Rate: 0},
		Rule{Point: DrainStall, Rate: 1, Delay: 3 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !in.Fire(JobPanic) {
			t.Fatal("rate-1 point missed")
		}
		if in.Fire(QueueFull) {
			t.Fatal("rate-0 point fired")
		}
		if in.Fire(CacheCorrupt) {
			t.Fatal("unarmed point fired")
		}
	}
	if d, ok := in.FireDelay(DrainStall); !ok || d != 3*time.Millisecond {
		t.Fatalf("FireDelay = (%s, %v), want (3ms, true)", d, ok)
	}

	var off *Injector
	if off.Fire(JobPanic) {
		t.Fatal("nil injector fired")
	}
	if off.Counts() != nil || off.Rules() != nil || off.String() != "" {
		t.Fatal("nil injector leaked state")
	}
}

// TestBindCounters: bound registry counters track fired faults, with
// point names sanitized for the exposition charset.
func TestBindCounters(t *testing.T) {
	in, err := FromSpec(7, "job-panic:1,queue-full:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	in.Bind(reg)
	for i := 0; i < 5; i++ {
		in.Fire(JobPanic)
		in.Fire(QueueFull)
	}
	if v := reg.Counter("fault_injections_total").Value(); v != 5 {
		t.Errorf("fault_injections_total = %d, want 5", v)
	}
	if v := reg.Counter("fault_job_panic_injections_total").Value(); v != 5 {
		t.Errorf("fault_job_panic_injections_total = %d, want 5", v)
	}
	if v := reg.Counter("fault_queue_full_injections_total").Value(); v != 0 {
		t.Errorf("fault_queue_full_injections_total = %d, want 0", v)
	}
}
