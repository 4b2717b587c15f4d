// Package fault is the deterministic fault-injection layer of the
// serving stack: a seeded injector with named fault points that the
// service and experiment layers consult at the places where production
// deployments actually fail — a panicking job handler, a slow
// simulation cell, a saturated queue, a corrupted cache entry, a drain
// that drags on. Every draw comes from one seeded PRNG, so a pinned
// seed replays the same fault distribution run after run; a nil
// *Injector is always off and costs one nil check on the hot path.
//
// Activation is explicit: dolos-serve -faults 'job-panic:0.2,...'
// (or the DOLOS_FAULTS environment variable) builds an injector and
// hands it to service.Config.Faults; nothing fires otherwise. The
// chaos suite (internal/service/chaos_test.go) pins seeds and asserts
// that no injected fault can lose a job, double-execute a simulation,
// or corrupt a served result. See DESIGN.md §11.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dolos/internal/telemetry"
)

// Point names one place faults can be injected.
type Point string

// The five fault points of the resilience layer.
const (
	// JobPanic panics inside the service's job handler, exercising
	// panic containment and client-side resubmission.
	JobPanic Point = "job-panic"
	// CellLatency stalls a simulation cell before it runs (artificial
	// slow cell), exercising deadlines and queueing behavior.
	CellLatency Point = "cell-latency"
	// QueueFull rejects a submission as if the job queue were
	// saturated, exercising 429 + Retry-After backpressure handling.
	QueueFull Point = "queue-full"
	// CacheCorrupt flips a byte in a stored result-cache entry,
	// exercising the cache's checksum verification and recompute path.
	CacheCorrupt Point = "cache-corrupt"
	// DrainStall delays in-flight work while the server is draining,
	// exercising the graceful-shutdown window.
	DrainStall Point = "drain-stall"
)

// Points lists every fault point in documentation order.
func Points() []Point {
	return []Point{JobPanic, CellLatency, QueueFull, CacheCorrupt, DrainStall}
}

// Rule arms one fault point: fire with probability Rate per draw, and
// (for the stalling points) sleep for Delay when fired.
type Rule struct {
	Point Point
	Rate  float64
	Delay time.Duration
}

// Injector is a seeded fault injector. The zero of its pointer type
// (nil) is a valid, permanently-off injector, so instrumented code
// calls it unconditionally. All methods are safe for concurrent use;
// concurrent draws serialize on one PRNG, which is what keeps a pinned
// seed's fault distribution reproducible.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[Point]Rule
	count map[Point]uint64

	// Bound telemetry counters (nil until Bind; nil-safe).
	total   *telemetry.Counter
	byPoint map[Point]*telemetry.Counter
}

// New builds an injector from explicit rules. Unknown points and rates
// outside [0, 1] are rejected; a duplicate point keeps the last rule.
func New(seed int64, rules ...Rule) (*Injector, error) {
	valid := make(map[Point]bool, len(Points()))
	for _, p := range Points() {
		valid[p] = true
	}
	in := &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		rules:   make(map[Point]Rule, len(rules)),
		count:   make(map[Point]uint64),
		byPoint: make(map[Point]*telemetry.Counter),
	}
	for _, r := range rules {
		if !valid[r.Point] {
			return nil, fmt.Errorf("fault: unknown point %q (want one of %s)", r.Point, pointList())
		}
		if !(r.Rate >= 0 && r.Rate <= 1) { // also rejects NaN
			return nil, fmt.Errorf("fault: point %s rate %v out of range [0, 1]", r.Point, r.Rate)
		}
		if r.Delay < 0 {
			return nil, fmt.Errorf("fault: point %s has negative delay %s", r.Point, r.Delay)
		}
		in.rules[r.Point] = r
	}
	return in, nil
}

// Parse decodes a fault spec: comma-separated point:rate[:delay]
// clauses, e.g. "job-panic:0.2,queue-full:0.1,cell-latency:0.5:2ms".
// Rate is a probability in [0, 1]; delay uses time.ParseDuration.
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("fault: malformed clause %q (want point:rate[:delay])", clause)
		}
		r := Rule{Point: Point(strings.TrimSpace(parts[0]))}
		rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: bad rate: %v", clause, err)
		}
		r.Rate = rate
		if len(parts) == 3 {
			d, err := time.ParseDuration(strings.TrimSpace(parts[2]))
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad delay: %v", clause, err)
			}
			r.Delay = d
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty spec")
	}
	return rules, nil
}

// FromSpec is New(seed, Parse(spec)...): the one-call constructor the
// CLI flags use.
func FromSpec(seed int64, spec string) (*Injector, error) {
	rules, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return New(seed, rules...)
}

// Fire draws the point and reports whether the fault fires. Points
// armed with a delay should use FireDelay instead so the stall length
// reaches the caller.
func (in *Injector) Fire(p Point) bool {
	_, ok := in.FireDelay(p)
	return ok
}

// FireDelay draws the point; when the fault fires it returns the
// rule's delay and true. On a nil injector, an unarmed point, or a
// losing draw it returns (0, false).
func (in *Injector) FireDelay(p Point) (time.Duration, bool) {
	if in == nil {
		return 0, false
	}
	in.mu.Lock()
	r, ok := in.rules[p]
	if !ok || r.Rate <= 0 {
		in.mu.Unlock()
		return 0, false
	}
	if r.Rate < 1 && in.rng.Float64() >= r.Rate {
		in.mu.Unlock()
		return 0, false
	}
	in.count[p]++
	c := in.byPoint[p]
	total := in.total
	in.mu.Unlock()
	c.Inc()
	total.Inc()
	return r.Delay, true
}

// Bind registers the injector's counters in a metrics registry:
// fault_injections_total plus one fault_<point>_injections_total per
// armed point, so /metrics exposes exactly how much adversity a chaos
// run injected. Nil-safe on both sides.
func (in *Injector) Bind(reg *telemetry.Registry) {
	if in == nil || reg == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.total = reg.Counter("fault_injections_total")
	for p := range in.rules {
		name := "fault_" + strings.ReplaceAll(string(p), "-", "_") + "_injections_total"
		in.byPoint[p] = reg.Counter(name)
	}
}

// Counts returns a copy of the per-point fired counts (nil injector:
// nil map).
func (in *Injector) Counts() map[Point]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Point]uint64, len(in.count))
	for p, n := range in.count {
		out[p] = n
	}
	return out
}

// Rules returns the armed rules sorted by point name (nil injector:
// nil), for startup logging.
func (in *Injector) Rules() []Rule {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Rule, 0, len(in.rules))
	for _, r := range in.rules {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// String renders the armed rules in Parse's spec syntax.
func (in *Injector) String() string {
	if in == nil {
		return ""
	}
	var b strings.Builder
	for i, r := range in.Rules() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%v", r.Point, r.Rate)
		if r.Delay > 0 {
			fmt.Fprintf(&b, ":%s", r.Delay)
		}
	}
	return b.String()
}

func pointList() string {
	names := make([]string, 0, len(Points()))
	for _, p := range Points() {
		names = append(names, string(p))
	}
	return strings.Join(names, ", ")
}
