package ctr

import (
	"testing"
	"testing/quick"

	"dolos/internal/nvm"
)

func newTestStore(period uint64) *Store {
	dev := nvm.NewDevice(nil, 1<<24, 0)
	// Data region [1MB, 2MB), counters at 8MB.
	return NewStore(dev, 8<<20, 1<<20, 1<<20, period)
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	f := func(major uint64, minors [LinesPerBlock]uint8) bool {
		var b Block
		b.Major = major
		for i, m := range minors {
			b.Minors[i] = m & MinorMax
		}
		got := DecodeBlock(b.Encode())
		return got == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCounterComposition(t *testing.T) {
	var b Block
	b.Major = 5
	b.Minors[3] = 9
	if got := b.Counter(3); got != 5<<MinorBits|9 {
		t.Fatalf("counter = %d", got)
	}
}

func TestIncrementAdvances(t *testing.T) {
	s := newTestStore(4)
	addr := uint64(1<<20 + 64)
	if c := s.Counter(addr); c != 0 {
		t.Fatalf("initial counter = %d", c)
	}
	r := s.Increment(addr)
	if r.Counter != 1 || r.Overflow {
		t.Fatalf("first increment: %+v", r)
	}
	if s.Counter(addr) != 1 {
		t.Fatalf("counter after increment = %d", s.Counter(addr))
	}
}

func TestNeighborLinesIndependent(t *testing.T) {
	s := newTestStore(4)
	a := uint64(1 << 20)
	b := a + 64
	s.Increment(a)
	s.Increment(a)
	s.Increment(b)
	if s.Counter(a) != 2 || s.Counter(b) != 1 {
		t.Fatalf("counters = %d, %d", s.Counter(a), s.Counter(b))
	}
}

func TestOsirisPersistPeriod(t *testing.T) {
	s := newTestStore(4)
	addr := uint64(1 << 20)
	var persisted int
	for i := 0; i < 8; i++ {
		if s.Increment(addr).Persisted {
			persisted++
		}
	}
	if persisted != 2 { // at updates 4 and 8
		t.Fatalf("persisted %d times in 8 updates with period 4", persisted)
	}
	if s.Persists() != 2 {
		t.Fatalf("Persists() = %d", s.Persists())
	}
}

func TestStoredCounterLags(t *testing.T) {
	s := newTestStore(4)
	addr := uint64(1 << 20)
	for i := 0; i < 6; i++ { // persist happened at 4
		s.Increment(addr)
	}
	if live, stored := s.Counter(addr), s.StoredCounter(addr); live != 6 || stored != 4 {
		t.Fatalf("live=%d stored=%d, want 6/4", live, stored)
	}
}

func TestMinorOverflow(t *testing.T) {
	s := newTestStore(1000) // large period so only overflow persists
	addr := uint64(1 << 20)
	other := addr + 64
	s.Increment(other) // give the neighbour a nonzero minor
	var overflowed bool
	for i := 0; i < MinorMax+1; i++ {
		r := s.Increment(addr)
		if r.Overflow {
			overflowed = true
			if !r.Persisted {
				t.Fatal("overflow did not persist the block")
			}
			if r.Counter != 1<<MinorBits|1 {
				t.Fatalf("post-overflow counter = %d", r.Counter)
			}
		}
	}
	if !overflowed {
		t.Fatal("no overflow after 128 increments")
	}
	// The neighbour's minor was reset; its effective counter changed.
	if got := s.Counter(other); got != 1<<MinorBits {
		t.Fatalf("neighbour counter after overflow = %d", got)
	}
	if s.Overflows() != 1 {
		t.Fatalf("Overflows() = %d", s.Overflows())
	}
}

func TestDropVolatileLosesUnpersisted(t *testing.T) {
	s := newTestStore(4)
	addr := uint64(1 << 20)
	for i := 0; i < 6; i++ {
		s.Increment(addr)
	}
	s.DropVolatile()
	if got := s.Counter(addr); got != 4 {
		t.Fatalf("post-crash counter = %d, want persisted 4", got)
	}
}

func TestPersistAddrAndAll(t *testing.T) {
	s := newTestStore(1000)
	a := uint64(1 << 20)
	b := a + nvm.PageSize
	s.Increment(a)
	s.Increment(b)
	s.PersistAddr(a)
	s.DropVolatile()
	if s.Counter(a) != 1 || s.Counter(b) != 0 {
		t.Fatalf("PersistAddr: a=%d b=%d", s.Counter(a), s.Counter(b))
	}
	s.Increment(b)
	s.PersistAll()
	s.DropVolatile()
	if s.Counter(b) != 1 {
		t.Fatalf("PersistAll: b=%d", s.Counter(b))
	}
}

func TestOsirisRecovery(t *testing.T) {
	s := newTestStore(4)
	addr := uint64(1 << 20)
	for i := 0; i < 7; i++ { // live=7, stored=4
		s.Increment(addr)
	}
	trueCounter := s.Counter(addr)
	s.DropVolatile()
	c, tried, ok := s.RecoverLine(addr, func(cand uint64) bool { return cand == trueCounter })
	if !ok || c != trueCounter {
		t.Fatalf("recovery: c=%d ok=%v", c, ok)
	}
	if tried != 4 { // candidates 4,5,6,7
		t.Fatalf("tried = %d", tried)
	}
	if s.Counter(addr) != trueCounter {
		t.Fatal("recovered counter not restored to live state")
	}
}

func TestOsirisRecoveryFailsWhenTampered(t *testing.T) {
	s := newTestStore(4)
	addr := uint64(1 << 20)
	s.Increment(addr)
	s.DropVolatile()
	_, _, ok := s.RecoverLine(addr, func(uint64) bool { return false })
	if ok {
		t.Fatal("recovery succeeded with no valid candidate")
	}
}

func TestRecoveryGapBoundProperty(t *testing.T) {
	// Property: for any number of increments, the live counter is always
	// within [stored, stored+period], so Osiris' probe window suffices.
	f := func(n uint8) bool {
		s := newTestStore(4)
		addr := uint64(1 << 20)
		for i := 0; i < int(n); i++ {
			s.Increment(addr)
		}
		live := s.Counter(addr)
		stored := s.StoredCounter(addr)
		return live >= stored && live-stored <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockNVMAddrDistinct(t *testing.T) {
	s := newTestStore(4)
	a := s.BlockNVMAddr(1 << 20)
	b := s.BlockNVMAddr(1<<20 + nvm.PageSize)
	if a == b || b-a != BlockSize {
		t.Fatalf("block addrs %#x %#x", a, b)
	}
	// Lines within one page share a counter block.
	if s.BlockNVMAddr(1<<20+64) != a {
		t.Fatal("same-page lines map to different counter blocks")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := newTestStore(4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range address")
		}
	}()
	s.Counter(0)
}

func TestTouchedPages(t *testing.T) {
	s := newTestStore(4)
	s.Increment(1 << 20)
	s.Increment(1<<20 + 2*nvm.PageSize)
	if got := s.TouchedPages(); len(got) != 2 {
		t.Fatalf("touched pages = %v", got)
	}
}

func TestRegionBytes(t *testing.T) {
	s := newTestStore(4)
	want := uint64((1 << 20) / nvm.PageSize * BlockSize)
	if s.RegionBytes() != want {
		t.Fatalf("RegionBytes = %d, want %d", s.RegionBytes(), want)
	}
}

// TestApplyRunMatchesApplyBlock pins ApplyRun to one ApplyBlock per
// update: the same live block, update count and persist count, and the
// same NVM image, for runs that start at every phase of the Osiris
// period, reach zero, one or several period points, or persist at every
// update. A run's block is live: its page's first line was just written.
func TestApplyRunMatchesApplyBlock(t *testing.T) {
	const addr = 1<<20 + 3*nvm.PageSize
	for _, period := range []uint64{1, 3, 4} {
		for _, persistEach := range []bool{false, true} {
			for pre := 1; pre <= 4; pre++ {
				for n := 0; n <= 9; n++ {
					run, ref := newTestStore(period), newTestStore(period)
					for _, s := range []*Store{run, ref} {
						for i := 0; i < pre; i++ {
							s.Increment(addr)
						}
					}
					pi := run.pageIndex(addr)
					slots := make([]uint8, n)
					for k := range slots {
						slots[k] = uint8(5 + k)
					}
					run.ApplyRun(pi, slots, persistEach)
					for _, li := range slots {
						blk := ref.BlockByIndex(pi)
						blk.Minors[li]++
						ref.ApplyBlock(pi, &blk, persistEach)
					}
					if *run.volatile.Get(pi) != *ref.volatile.Get(pi) || run.updates.Get(pi) != ref.updates.Get(pi) ||
						run.Persists() != ref.Persists() {
						t.Errorf("period %d persistEach %v pre %d n %d: live state differs", period, persistEach, pre, n)
					}
					if run.dev.ReadLine(run.base+pi*BlockSize) != ref.dev.ReadLine(ref.base+pi*BlockSize) {
						t.Errorf("period %d persistEach %v pre %d n %d: counter block image differs", period, persistEach, pre, n)
					}
				}
			}
		}
	}
}
