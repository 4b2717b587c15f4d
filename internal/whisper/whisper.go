// Package whisper implements the six persistent database workloads the
// paper evaluates (Section 5.1), modeled on the WHISPER suite: Hashmap,
// Ctree (crit-bit tree), Btree, RBtree, NStore:YCSB and Redis. Each is a
// genuine data-structure implementation over the pmem persistent heap
// with PMDK-style undo-log transactions; running one produces the memory
// trace (stores, flushes, fences, loads, compute gaps) that drives the
// timing simulator.
//
// Mirroring the paper's methodology, each workload is fast-forwarded (a
// warm-up phase populates the structure without recording) and then the
// measured transactions are recorded. The transaction-size parameter sets
// the per-transaction value payload (128 B - 2048 B in Figures 13-14).
package whisper

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"dolos/internal/pmem"
	"dolos/internal/sim"
	"dolos/internal/trace"
)

// ErrUnknown is the sentinel wrapped by every "no such workload"
// failure (ByName, Resolve), re-exported at the façade as
// dolos.ErrUnknownWorkload so callers can errors.Is their way from an
// arbitrary run error to the misspelled-workload cause.
var ErrUnknown = errors.New("unknown workload")

// Params configures a workload run.
type Params struct {
	// Transactions is the number of measured transactions.
	Transactions int
	// TxSize is the per-transaction value payload in bytes (the paper's
	// "transaction size"; default 1024).
	TxSize int
	// Warmup is the number of unrecorded warm-up operations (default
	// Transactions / 2).
	Warmup int
	// Seed fixes the operation stream (default 1).
	Seed int64
	// HeapBase and HeapSize place the persistent heap (defaults: 4 KB
	// into the data region, 48 MB).
	HeapBase, HeapSize uint64
	// ReadPercent shifts the NStore:YCSB operation mix: percentage of
	// read operations (0 = the default 50/50 YCSB-A mix; use 95 for a
	// YCSB-B-like read-mostly mix). Other workloads ignore it.
	ReadPercent int
}

// WithDefaults returns the parameters with every unset field filled in,
// so callers can compute derived addresses (heap base, log location).
func (p Params) WithDefaults() Params { return p.withDefaults() }

func (p Params) withDefaults() Params {
	if p.Transactions == 0 {
		p.Transactions = 1000
	}
	if p.TxSize == 0 {
		p.TxSize = 1024
	}
	if p.Warmup == 0 {
		p.Warmup = p.Transactions / 2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.HeapBase == 0 {
		p.HeapBase = 4096
	}
	if p.HeapSize == 0 {
		p.HeapSize = 48 << 20
	}
	return p
}

// Workload generates a memory trace from a persistent application.
type Workload interface {
	// Name returns the benchmark name as the paper's figures label it.
	Name() string
	// Generate runs the workload and returns its trace.
	Generate(p Params) *trace.Trace
}

// Names lists the six benchmarks in the paper's figure order.
func Names() []string {
	return []string{"Hashmap", "Ctree", "Btree", "RBtree", "NStore:YCSB", "Redis"}
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	switch name {
	case "Hashmap":
		return Hashmap{}, nil
	case "Ctree":
		return Ctree{}, nil
	case "Btree":
		return Btree{}, nil
	case "RBtree":
		return RBtree{}, nil
	case "NStore:YCSB":
		return YCSB{}, nil
	case "Redis":
		return Redis{}, nil
	case "TxStream":
		return TxStream{}, nil
	case "PQueue":
		return PQueue{}, nil
	}
	return nil, fmt.Errorf("whisper: %w %q", ErrUnknown, name)
}

// aliasKey folds a workload spelling the same way the scheme aliases
// fold: lowercase with separator runes removed, so "NStore:YCSB",
// "nstore-ycsb" and "NStore_YCSB" all resolve identically.
func aliasKey(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch r {
		case '-', '_', ' ', ':', '.':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// workloadAliases maps folded spellings to canonical names: the six
// WHISPER benchmarks, the two microbenchmarks, and the short forms the
// paper's text uses for the YCSB workload.
var workloadAliases = func() map[string]string {
	m := make(map[string]string)
	for _, n := range Names() {
		m[aliasKey(n)] = n
	}
	for _, n := range MicroNames() {
		m[aliasKey(n)] = n
	}
	m["ycsb"] = "NStore:YCSB"
	m["nstore"] = "NStore:YCSB"
	return m
}()

// Resolve maps any accepted workload spelling — canonical names in any
// case or hyphenation, plus the YCSB short forms — onto the canonical
// name ByName and the paper's figures use. The error wraps ErrUnknown.
func Resolve(name string) (string, error) {
	if canon, ok := workloadAliases[aliasKey(name)]; ok {
		return canon, nil
	}
	return "", fmt.Errorf("whisper: %w %q (want one of %s)",
		ErrUnknown, name, strings.Join(Names(), ", "))
}

// All returns every workload in figure order.
func All() []Workload {
	out := make([]Workload, 0, 6)
	for _, n := range Names() {
		w, _ := ByName(n)
		out = append(out, w)
	}
	return out
}

// session bundles the common generation state.
type session struct {
	p    Params
	rec  *trace.Recorder
	heap *pmem.Heap
	tx   *pmem.TxHeap
	rng  *rand.Rand
	pat  []byte // payload's pattern: pat[k] = byte(7k)
	sink []byte // discard's buffer
}

// newSession builds w's heap (recording disabled until record()) with
// its backing reserved at heapNeed, so it is allocated once.
func newSession(w Workload, p Params) *session {
	p = p.withDefaults()
	rec := trace.NewRecorder(w.Name(), p.TxSize)
	heap := pmem.NewHeap(p.HeapBase, p.HeapSize, nil)
	heap.Reserve(heapNeed(w, p))
	pat := make([]byte, p.TxSize+256)
	for k := range pat {
		pat[k] = byte(7 * k)
	}
	return &session{
		p:    p,
		rec:  rec,
		heap: heap,
		tx:   pmem.NewTx(heap, LogCapacity(p)),
		rng:  rand.New(rand.NewSource(p.Seed)),
		pat:  pat,
		sink: make([]byte, p.TxSize),
	}
}

// record switches from warm-up to measured mode: the warm-up heap image
// becomes the trace's checkpoint (gem5-style fast-forward state) and
// subsequent accesses are recorded.
func (s *session) record() {
	s.rec.SetInitImage(s.heap.UsedImage())
	s.heap.SetRecorder(s.rec)
}

// LogCapacity returns the undo-log entry capacity a session uses for the
// given parameters: payload lines plus structural lines plus slack for
// deep rebalance chains (RBtree recoloring can ascend many levels).
func LogCapacity(p Params) int {
	p = p.withDefaults()
	return p.TxSize/64 + 64
}

// StructureBase returns the NVM address of the first structure a
// workload allocates after its undo log (e.g. the Hashmap bucket array),
// for post-recovery structural walks.
func StructureBase(p Params) uint64 {
	p = p.withDefaults()
	return p.HeapBase + pmem.LogLines(LogCapacity(p))*pmem.LineSize
}

// LogBase returns the NVM address of a workload's undo log.
func LogBase(p Params) uint64 {
	return p.withDefaults().HeapBase
}

// payload returns a deterministic value of the transaction size: byte i
// is byte(key + 7i). It is a window of the session's pattern, since
// byte(key + 7i) = byte(7(j+i)) for j = 183·key mod 256 (183 is the
// inverse of 7 mod 256). The window's capacity ends at its length, so an
// append copies rather than writing into the pattern; callers only read
// it.
func (s *session) payload(key uint64) []byte {
	j := int(byte(183 * key))
	return s.pat[j : j+s.p.TxSize : j+s.p.TxSize]
}

// discard records a load of n bytes at addr whose value the workload
// does not use (n ≤ the transaction size).
func (s *session) discard(addr uint64, n int) { s.heap.Read(addr, s.sink[:n]) }

// compute charges workload-level compute cycles (hashing, comparisons,
// parsing) beyond the pmem per-access overheads.
func (s *session) compute(c sim.Cycle) { s.heap.Compute(c) }
