package whisper

// Oracle tests: each data structure is driven with a random operation
// stream mirrored into a Go map; lookups must agree at every step.

import (
	"math/rand"
	"testing"
)

const oracleOps = 1500

func oracleKeys(rng *rand.Rand) []uint64 {
	keys := make([]uint64, oracleOps)
	for i := range keys {
		keys[i] = rng.Uint64() % 300 // dense range: plenty of collisions
	}
	return keys
}

func TestHashmapOracle(t *testing.T) {
	s := newSession(Hashmap{}, Params{Transactions: 1, Warmup: 1, TxSize: 128, Seed: 1, HeapSize: 64 << 20})
	m := &hashmapState{session: s}
	m.buckets = s.heap.Alloc(hashmapBuckets * 8)
	rng := rand.New(rand.NewSource(99))
	oracle := map[uint64]bool{}

	for _, k := range oracleKeys(rng) {
		switch rng.Intn(3) {
		case 0, 1:
			m.put(k)
			oracle[k] = true
		case 2:
			m.del(k)
			delete(oracle, k)
		}
		node, _ := m.lookup(k)
		if (node != 0) != oracle[k] {
			t.Fatalf("hashmap disagrees with oracle on key %d: got %v want %v", k, node != 0, oracle[k])
		}
	}
}

func TestBtreeOracle(t *testing.T) {
	s := newSession(Btree{}, Params{Transactions: 1, Warmup: 1, TxSize: 128, Seed: 1, HeapSize: 64 << 20})
	b := &btreeState{session: s}
	b.root = b.newNode(true)
	rng := rand.New(rand.NewSource(7))
	oracle := map[uint64]bool{}

	for _, k := range oracleKeys(rng) {
		b.insert(k)
		oracle[k] = true
		// Check this key plus a random other key.
		probe := rng.Uint64() % 300
		if (b.get(probe) != 0) != oracle[probe] {
			t.Fatalf("btree disagrees with oracle on key %d", probe)
		}
	}
	for k := range oracle {
		if b.get(k) == 0 {
			t.Fatalf("btree lost key %d", k)
		}
	}
}

func TestCtreeOracle(t *testing.T) {
	s := newSession(Ctree{}, Params{Transactions: 1, Warmup: 1, TxSize: 128, Seed: 1, HeapSize: 64 << 20})
	c := &ctreeState{session: s}
	c.rootSlot = s.heap.Alloc(64)
	rng := rand.New(rand.NewSource(13))
	oracle := map[uint64]bool{}

	for _, k := range oracleKeys(rng) {
		c.put(k)
		oracle[k] = true
		probe := rng.Uint64() % 300
		found := c.get(probe) != 0
		if found != oracle[probe] {
			t.Fatalf("ctree disagrees with oracle on key %d: got %v", probe, found)
		}
	}
}

func TestRBtreeOracle(t *testing.T) {
	s := newSession(RBtree{}, Params{Transactions: 1, Warmup: 1, TxSize: 128, Seed: 1, HeapSize: 64 << 20})
	r := &rbtreeState{session: s}
	r.rootSlot = s.heap.Alloc(64)
	rng := rand.New(rand.NewSource(21))
	oracle := map[uint64]bool{}

	for _, k := range oracleKeys(rng) {
		r.put(k)
		oracle[k] = true
		probe := rng.Uint64() % 300
		if (r.get(probe) != 0) != oracle[probe] {
			t.Fatalf("rbtree disagrees with oracle on key %d", probe)
		}
	}
	// Full invariant check after the stream.
	assertRedBlackInvariants(t, r)
}

func assertRedBlackInvariants(t *testing.T, r *rbtreeState) {
	t.Helper()
	if r.root() != 0 && r.color(r.root()) != rbBlack {
		t.Fatal("root not black")
	}
	// Equal black-height on every path, no red-red edges, BST order.
	var walk func(n uint64, min, max uint64) int
	walk = func(n uint64, min, max uint64) int {
		if n == 0 {
			return 1
		}
		k := r.key(n)
		if k < min || k > max {
			t.Fatalf("BST violation at key %d", k)
		}
		if r.color(n) == rbRed {
			if r.color(r.left(n)) == rbRed || r.color(r.right(n)) == rbRed {
				t.Fatal("red-red violation")
			}
		}
		var lo, hi uint64 = min, max
		lh := walk(r.left(n), lo, k)
		rh := walk(r.right(n), k, hi)
		if lh != rh {
			t.Fatalf("black-height mismatch at key %d: %d vs %d", k, lh, rh)
		}
		if r.color(n) == rbBlack {
			return lh + 1
		}
		return lh
	}
	walk(r.root(), 0, ^uint64(0))
}

func TestRedisOracle(t *testing.T) {
	s := newSession(Redis{}, Params{Transactions: 1, Warmup: 1, TxSize: 128, Seed: 1, HeapSize: 64 << 20})
	r := &redisState{session: s}
	r.buckets = s.heap.Alloc(redisBuckets * 8)
	rng := rand.New(rand.NewSource(31))
	oracle := map[uint64]bool{}

	for _, k := range oracleKeys(rng) {
		switch rng.Intn(4) {
		case 0, 1, 2:
			r.set(k)
			oracle[k] = true
		case 3:
			r.del(k)
			delete(oracle, k)
		}
		entry, _ := r.find(k)
		if (entry != 0) != oracle[k] {
			t.Fatalf("redis dict disagrees with oracle on key %d", k)
		}
	}
}

func TestYCSBGenerationsAdvance(t *testing.T) {
	s := newSession(YCSB{}, Params{Transactions: 1, Warmup: 1, TxSize: 128, Seed: 1, HeapSize: 64 << 20})
	y := &ycsbState{session: s}
	y.table = s.heap.Alloc(64 * 8)
	for i := uint64(0); i < 8; i++ {
		y.populate(i)
	}
	rec := s.heap.ReadU64(y.slotAddr(3))
	if g := s.heap.ReadU64(rec + 16); g != 0 {
		t.Fatalf("fresh generation = %d", g)
	}
	y.update(3)
	y.update(3)
	if g := s.heap.ReadU64(rec + 16); g != 2 {
		t.Fatalf("generation after two updates = %d", g)
	}
}
