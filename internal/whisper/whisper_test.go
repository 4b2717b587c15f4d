package whisper

import (
	"slices"
	"testing"

	"dolos/internal/trace"
)

func smallParams() Params {
	return Params{Transactions: 60, Warmup: 40, TxSize: 256, Seed: 7}
}

func TestAllWorkloadsGenerate(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			tr := w.Generate(smallParams())
			if tr.Name != w.Name() {
				t.Fatalf("trace name %q", tr.Name)
			}
			if tr.Transactions < 60 {
				t.Fatalf("recorded %d transactions, want >= 60", tr.Transactions)
			}
			c := tr.Count()
			if c.Writes == 0 || c.Flushes == 0 || c.Fences == 0 {
				t.Fatalf("degenerate trace: %+v", c)
			}
			if c.ComputeCycles == 0 {
				t.Fatal("no compute recorded")
			}
		})
	}
}

func TestNamesAndByName(t *testing.T) {
	if len(Names()) != 6 {
		t.Fatalf("names = %v", Names())
	}
	for _, n := range Names() {
		w, err := ByName(n)
		if err != nil || w.Name() != n {
			t.Fatalf("ByName(%q) -> %v, %v", n, w, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestDeterministicTraces(t *testing.T) {
	for _, w := range All() {
		a := w.Generate(smallParams())
		b := w.Generate(smallParams())
		if len(a.Ops) != len(b.Ops) {
			t.Fatalf("%s: nondeterministic op count %d vs %d", w.Name(), len(a.Ops), len(b.Ops))
		}
		for i := range a.Ops {
			if a.Ops[i] != b.Ops[i] {
				t.Fatalf("%s: op %d differs", w.Name(), i)
			}
		}
	}
}

func TestTxSizeScalesFlushes(t *testing.T) {
	for _, w := range All() {
		small := w.Generate(Params{Transactions: 40, Warmup: 30, TxSize: 128, Seed: 3})
		large := w.Generate(Params{Transactions: 40, Warmup: 30, TxSize: 2048, Seed: 3})
		if large.Count().Flushes <= small.Count().Flushes {
			t.Fatalf("%s: flushes did not scale with tx size: %d vs %d",
				w.Name(), small.Count().Flushes, large.Count().Flushes)
		}
	}
}

func TestFlushesAlwaysFenced(t *testing.T) {
	// Crash consistency of the generators themselves: every transaction's
	// flushes are followed by a fence before TxEnd.
	for _, w := range All() {
		tr := w.Generate(smallParams())
		pendingFlush := false
		for _, op := range tr.Ops {
			switch op.Kind {
			case trace.Flush:
				pendingFlush = true
			case trace.Fence:
				pendingFlush = false
			case trace.TxEnd:
				if pendingFlush {
					t.Fatalf("%s: TxEnd with unfenced flushes", w.Name())
				}
			}
		}
	}
}

func TestAddressesWithinHeap(t *testing.T) {
	p := smallParams()
	p = p.withDefaults()
	for _, w := range All() {
		tr := w.Generate(p)
		for _, op := range tr.Ops {
			switch op.Kind {
			case trace.Read, trace.Write, trace.Flush:
				if op.Addr < p.HeapBase || op.Addr >= p.HeapBase+p.HeapSize {
					t.Fatalf("%s: op addr %#x outside heap", w.Name(), op.Addr)
				}
			}
		}
	}
}

// TestPayloadMatchesLoop pins payload's pattern window to the loop it
// replaced, byte i = byte(key + 7i), for every residue of the key mod 256
// (a key above 255 with the same low byte gives the same value) and a
// range of transaction sizes, and pins that the window's capacity ends
// at its length, so an append cannot write into the shared pattern.
func TestPayloadMatchesLoop(t *testing.T) {
	for _, size := range []int{64, 100, 1024, 4096} {
		s := newSession(Hashmap{}, Params{Transactions: 1, TxSize: size})
		for key := uint64(0); key < 256+3; key++ {
			got := s.payload(key)
			if len(got) != size || cap(got) != size {
				t.Fatalf("size %d key %d: len %d cap %d", size, key, len(got), cap(got))
			}
			for i := range got {
				if want := byte(key + uint64(i)*7); got[i] != want {
					t.Fatalf("size %d key %d: byte %d = %d, want %d", size, key, i, got[i], want)
				}
			}
		}
		pat := slices.Clone(s.pat)
		for key := uint64(0); key < 256; key++ {
			_ = append(s.payload(key), 0xFF)
		}
		if !slices.Equal(s.pat, pat) {
			t.Fatalf("size %d: an append to a payload wrote into the pattern", size)
		}
	}
}

func TestHashmapFunctional(t *testing.T) {
	s := newSession(Hashmap{}, Params{Transactions: 10, Warmup: 1, TxSize: 128, Seed: 1})
	m := &hashmapState{session: s}
	m.buckets = s.heap.Alloc(hashmapBuckets * 8)
	m.put(42)
	node, _ := m.lookup(42)
	if node == 0 {
		t.Fatal("inserted key not found")
	}
	m.del(42)
	node, _ = m.lookup(42)
	if node != 0 {
		t.Fatal("deleted key still present")
	}
}

func TestBtreeFunctional(t *testing.T) {
	s := newSession(Btree{}, Params{Transactions: 10, Warmup: 1, TxSize: 128, Seed: 1})
	b := &btreeState{session: s}
	b.root = b.newNode(true)
	keys := []uint64{50, 10, 90, 30, 70, 20, 80, 40, 60, 1, 99, 55, 45, 35, 25, 15, 5, 65, 75, 85}
	for _, k := range keys {
		b.insert(k)
	}
	for _, k := range keys {
		if b.get(k) == 0 {
			t.Fatalf("key %d lost after splits", k)
		}
	}
	if b.get(1000) != 0 {
		t.Fatal("phantom key found")
	}
}

func TestBtreeManyKeysSorted(t *testing.T) {
	s := newSession(Btree{}, Params{Transactions: 10, Warmup: 1, TxSize: 128, Seed: 1})
	b := &btreeState{session: s}
	b.root = b.newNode(true)
	for k := uint64(1); k <= 300; k++ {
		b.insert(k * 7 % 301)
	}
	for k := uint64(1); k <= 300; k++ {
		if b.get(k*7%301) == 0 {
			t.Fatalf("key %d missing", k*7%301)
		}
	}
}

func TestCtreeFunctional(t *testing.T) {
	s := newSession(Ctree{}, Params{Transactions: 10, Warmup: 1, TxSize: 128, Seed: 1})
	c := &ctreeState{session: s}
	c.rootSlot = s.heap.Alloc(64)
	keys := []uint64{0, 1, 2, 255, 256, 1 << 40, 1<<40 + 1, 7, 8, 9}
	for _, k := range keys {
		c.put(k)
	}
	for _, k := range keys {
		if c.get(k) == 0 && k != 0 {
			t.Fatalf("key %d lost", k)
		}
	}
	if c.get(12345) != 0 {
		t.Fatal("phantom key")
	}
}

func TestRBtreeFunctionalAndBalanced(t *testing.T) {
	s := newSession(RBtree{}, Params{Transactions: 10, Warmup: 1, TxSize: 128, Seed: 1})
	r := &rbtreeState{session: s}
	r.rootSlot = s.heap.Alloc(64)
	n := uint64(500)
	for k := uint64(0); k < n; k++ {
		r.put(k) // adversarial: sorted insertion
	}
	for k := uint64(0); k < n; k++ {
		if r.get(k) == 0 {
			t.Fatalf("key %d lost", k)
		}
	}
	// Red-black invariants: root black, no red-red edges, and height
	// bounded by 2*log2(n+1).
	var maxDepth int
	var check func(node uint64, depth int)
	check = func(node uint64, depth int) {
		if node == 0 {
			if depth > maxDepth {
				maxDepth = depth
			}
			return
		}
		if r.color(node) == rbRed {
			if r.color(r.left(node)) == rbRed || r.color(r.right(node)) == rbRed {
				t.Fatal("red-red violation")
			}
		}
		check(r.left(node), depth+1)
		check(r.right(node), depth+1)
	}
	if r.color(r.root()) != rbBlack {
		t.Fatal("root not black")
	}
	check(r.root(), 0)
	if maxDepth > 20 { // 2*log2(501) ~= 18
		t.Fatalf("tree depth %d too large for %d sorted inserts", maxDepth, n)
	}
}

func TestYCSBSkew(t *testing.T) {
	tr := YCSB{}.Generate(Params{Transactions: 100, Warmup: 100, TxSize: 256, Seed: 5})
	if tr.Transactions < 100 {
		t.Fatalf("transactions = %d", tr.Transactions)
	}
	// The zipfian mix should produce noticeably fewer distinct flushed
	// lines than a uniform workload of the same size.
	lines := map[uint64]bool{}
	flushes := 0
	for _, op := range tr.Ops {
		if op.Kind == trace.Flush {
			flushes++
			lines[op.Addr] = true
		}
	}
	if len(lines) >= flushes {
		t.Fatal("no flush-line reuse under zipfian skew")
	}
}

func TestRedisMixGeneratesReads(t *testing.T) {
	tr := Redis{}.Generate(Params{Transactions: 120, Warmup: 80, TxSize: 256, Seed: 9})
	c := tr.Count()
	if c.Reads == 0 {
		t.Fatal("GET mix produced no reads")
	}
}
