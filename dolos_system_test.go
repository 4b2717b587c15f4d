package dolos

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dolos/internal/trace"
)

func TestSystemFacade(t *testing.T) {
	tr, err := GenerateTrace("Ctree", WorkloadParams{
		Transactions: 30, Warmup: 20, TxSize: 256, Seed: 4, HeapSize: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SystemConfig{Scheme: DolosPartial, Tree: BMTEager, Layout: SmallAddressMap()}
	copy(cfg.AESKey[:], "facade-aes-key16")
	copy(cfg.MACKey[:], "facade-mac-key16")
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions < 30 || res.Cycles == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}

func TestCrashFacade(t *testing.T) {
	tr, err := GenerateTrace("Hashmap", WorkloadParams{
		Transactions: 20, Warmup: 10, TxSize: 256, Seed: 4, HeapSize: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SystemConfig{Scheme: DolosPost, Layout: SmallAddressMap()}
	copy(cfg.AESKey[:], "facade-aes-key16")
	copy(cfg.MACKey[:], "facade-mac-key16")
	d, err := NewCrashDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.RunAndCrash(tr, 40_000, AnubisRecovery)
	if err != nil {
		t.Fatalf("crash experiment: %v (%+v)", err, out)
	}
}

func TestAdversaryFacade(t *testing.T) {
	cfg := SystemConfig{Scheme: DolosPartial, Layout: SmallAddressMap()}
	copy(cfg.AESKey[:], "facade-aes-key16")
	copy(cfg.MACKey[:], "facade-mac-key16")
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var p [64]byte
	p[0] = 1
	sys.Ctrl.MaSU().ProcessWrite(0x1000, p, -1)
	adv := NewAdversary(sys.Dev, 1)
	adv.FlipBit(0x1000, 0)
	if _, _, err := sys.Ctrl.MaSU().ReadLine(0x1000); err == nil {
		t.Fatal("facade adversary tamper undetected")
	}
}

func TestTraceSaveLoadFacade(t *testing.T) {
	tr, err := GenerateTrace("TxStream", WorkloadParams{Transactions: 10, Warmup: 5, TxSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/t.trace"
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(path)
	if err != nil || got.Transactions != tr.Transactions {
		t.Fatalf("trace facade round trip: %v", err)
	}
}

func TestAddressMaps(t *testing.T) {
	if DefaultAddressMap().DataSpan != 16<<30 || SmallAddressMap().DataSpan != 64<<20 {
		t.Fatal("address map facades wrong")
	}
}

// TestGenerateTraceRefusesHeapOverflow: a run that could exhaust the
// workload's persistent heap is an error, not a heap-exhausted panic
// part way through generation.
func TestGenerateTraceRefusesHeapOverflow(t *testing.T) {
	tr, err := GenerateTrace("Hashmap", WorkloadParams{Transactions: 20000, TxSize: 4096})
	if err == nil || tr != nil {
		t.Fatalf("GenerateTrace = %v, %v; want a heap error", tr, err)
	}
	if !strings.Contains(err.Error(), "persistent heap") {
		t.Errorf("error %q does not name the persistent heap", err)
	}
}

// The configurations below used to panic in NewSystem (cache geometry,
// cost table, tree) or run silently misread (a negative WPQ ran one
// entry under Dolos-Partial, a negative Triad-NVM level count ran N =
// 1); each is now an error wrapping ErrInvalidConfig.
func TestNewSystemRefusesInvalidConfig(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  SystemConfig
	}{
		{"counter cache 1 B", SystemConfig{Scheme: DolosPartial, CounterCacheBytes: 1}},
		{"MT cache 64 B", SystemConfig{Scheme: DolosPartial, MTCacheBytes: 64}},
		{"counter cache 1 TB", SystemConfig{Scheme: DolosPartial, CounterCacheBytes: 1 << 40}},
		{"scheme 99", SystemConfig{Scheme: Scheme(99)}},
		{"tree 7", SystemConfig{Scheme: DolosPartial, Tree: TreeKind(7)}},
		{"WPQ -3 Dolos-Full", SystemConfig{Scheme: DolosFull, HardwareWPQ: -3}},
		{"WPQ -3 Dolos-Partial", SystemConfig{Scheme: DolosPartial, HardwareWPQ: -3}},
		{"WPQ -3 Pre-WPQ-Secure", SystemConfig{Scheme: PreWPQSecure, HardwareWPQ: -3}},
		{"Triad levels -1", SystemConfig{Scheme: TriadNVM, TriadLevels: -1}},
	} {
		c.cfg.Layout = SmallAddressMap()
		sys, err := NewSystem(c.cfg)
		if sys != nil || !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: NewSystem = %v, %v; want an error wrapping ErrInvalidConfig", c.name, sys, err)
		}
		if _, err := NewCrashDriver(c.cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: NewCrashDriver error %v, want one wrapping ErrInvalidConfig", c.name, err)
		}
	}
}

// A trace generated at a heap base past a smaller layout's data region
// used to panic in the Ma-SU ("write outside data region"); Run and the
// crash driver now refuse it, naming the address, before loading it.
// Run reads the lines, not the span the recorder kept, so a generated
// trace whose Ops were edited afterwards and one built by hand are
// refused too.
func TestRunRefusesTraceOutsideLayout(t *testing.T) {
	tr, err := GenerateTrace("Hashmap", WorkloadParams{Transactions: 20, Seed: 1, HeapBase: 100 << 20, HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	edited, err := GenerateTrace("Hashmap", WorkloadParams{Transactions: 20, Seed: 1, HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := slices.IndexFunc(edited.Ops, func(op trace.Op) bool { return op.Kind == trace.Write })
	edited.Ops[w].Addr = 64 << 20
	byHand := &Trace{Ops: []trace.Op{{Kind: trace.TxBegin}, {Kind: trace.Write, Addr: 100 << 20}, {Kind: trace.TxEnd}}}
	cfg := SystemConfig{Scheme: DolosPartial, Layout: SmallAddressMap()}
	for _, c := range []struct {
		name string
		tr   *Trace
		addr uint64
	}{
		{"heap base 100 MB", tr, tr.InitImage[0].Addr},
		{"edited op", edited, 64 << 20},
		{"built by hand", byHand, 100 << 20},
	} {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr := fmt.Sprintf("%#x", c.addr)
		if _, err := sys.Run(c.tr); !errors.Is(err, ErrTraceOutsideData) || !strings.Contains(err.Error(), addr) {
			t.Errorf("%s: Run error %v, want one wrapping ErrTraceOutsideData naming %s", c.name, err, addr)
		}
	}
	d, err := NewCrashDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunAndCrash(tr, 1000, AnubisRecovery); !errors.Is(err, ErrTraceOutsideData) {
		t.Errorf("RunAndCrash error %v, want one wrapping ErrTraceOutsideData", err)
	}
}

// fuzzTrace is the small trace FuzzSystem mutates.
var fuzzTrace = func() *Trace {
	tr, err := GenerateTrace("Hashmap", WorkloadParams{Transactions: 4, Warmup: 4, TxSize: 64, Seed: 1, HeapSize: 1 << 20})
	if err != nil {
		panic(err)
	}
	return tr
}()

// mutateTrace copies tr with every address shifted by shift bytes and
// op at rewritten to kind. It edits the copy's InitImage and Ops the way
// a caller holding a trace would, so the copy keeps tr's line span: Run
// must check the lines themselves.
func mutateTrace(tr *Trace, shift uint64, at int, kind trace.Kind) *Trace {
	cp := *tr
	cp.InitImage = slices.Clone(tr.InitImage)
	cp.Ops = slices.Clone(tr.Ops)
	for i := range cp.InitImage {
		cp.InitImage[i].Addr += shift
	}
	for i := range cp.Ops {
		cp.Ops[i].Addr += shift
	}
	cp.Ops[at].Kind = kind
	return &cp
}

// FuzzSystem builds a system from fuzzed controller config fields on the
// small layout and runs a small Hashmap trace on it, shifted by a fuzzed
// number of lines and with one op's kind rewritten. The oracle: an error
// or a record, never a panic. NewSystem's errors wrap ErrInvalidConfig
// and Run's wrap ErrTraceOutsideData. Validate bounds each cache
// override by the small layout's 16 MB metadata region it caches, so no
// input allocates more than a few megabytes of cache. The seeds under
// testdata/fuzz/FuzzSystem are the configurations and the trace that
// used to panic or be misread.
func FuzzSystem(f *testing.F) {
	f.Add(int(DolosPartial), int(BMTEager), 16, uint64(0), uint64(0), 0, false, uint32(0), uint16(0), uint8(trace.Compute))
	f.Fuzz(func(t *testing.T, sch, tree, wpq int, ctrBytes, mtBytes uint64, triad int,
		noCoalesce bool, shiftLines uint32, at uint16, kind uint8) {
		cfg := SystemConfig{
			Scheme: Scheme(sch), Tree: TreeKind(tree), HardwareWPQ: wpq,
			CounterCacheBytes: ctrBytes, MTCacheBytes: mtBytes,
			TriadLevels: triad, DisableCoalescing: noCoalesce,
			Layout: SmallAddressMap(),
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("NewSystem(%+v): error %v does not wrap ErrInvalidConfig", cfg, err)
			}
			return
		}
		tr := mutateTrace(fuzzTrace, uint64(shiftLines)<<6, int(at)%len(fuzzTrace.Ops), trace.Kind(kind%(uint8(trace.TxEnd)+1)))
		if _, err := sys.Run(tr); err != nil && !errors.Is(err, ErrTraceOutsideData) {
			t.Fatalf("Run: error %v does not wrap ErrTraceOutsideData", err)
		}
	})
}
