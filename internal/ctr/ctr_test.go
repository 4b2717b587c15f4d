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

// increment advances addr's line counter the way a Ma-SU write does:
// it copies the page's live block, advances the line's minor (a minor at
// its maximum overflows into the major and resets the page's minors),
// and commits the copy, persisting it on an overflow. It returns the new
// counter, whether the minor overflowed and whether the block persisted.
func increment(s *Store, addr uint64) (counter uint64, overflow, persisted bool) {
	pi := s.pageIndex(addr)
	live := s.Live(pi)
	blk := *live
	li := lineIndex(addr)
	overflow = blk.Minors[li] == MinorMax
	if overflow {
		blk.Major++
		clear(blk.Minors[:])
		blk.Minors[li] = 1
	} else {
		blk.Minors[li]++
	}
	before := s.Persists()
	s.Commit(pi, live, &blk, overflow)
	return blk.Counter(li), overflow, s.Persists() > before
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
	if c, overflow, _ := increment(s, addr); c != 1 || overflow {
		t.Fatalf("first increment: counter %d, overflow %v", c, overflow)
	}
	if s.Counter(addr) != 1 {
		t.Fatalf("counter after increment = %d", s.Counter(addr))
	}
}

func TestNeighborLinesIndependent(t *testing.T) {
	s := newTestStore(4)
	a := uint64(1 << 20)
	b := a + 64
	increment(s, a)
	increment(s, a)
	increment(s, b)
	if s.Counter(a) != 2 || s.Counter(b) != 1 {
		t.Fatalf("counters = %d, %d", s.Counter(a), s.Counter(b))
	}
}

func TestOsirisPersistPeriod(t *testing.T) {
	s := newTestStore(4)
	addr := uint64(1 << 20)
	var persisted int
	for i := 0; i < 8; i++ {
		if _, _, p := increment(s, addr); p {
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
		increment(s, addr)
	}
	if live, stored := s.Counter(addr), s.StoredCounter(addr); live != 6 || stored != 4 {
		t.Fatalf("live=%d stored=%d, want 6/4", live, stored)
	}
}

func TestMinorOverflow(t *testing.T) {
	s := newTestStore(1000) // large period so only overflow persists
	addr := uint64(1 << 20)
	other := addr + 64
	increment(s, other) // give the neighbour a nonzero minor
	overflows := 0
	for i := 0; i < MinorMax+1; i++ {
		c, overflow, persisted := increment(s, addr)
		if overflow {
			overflows++
			if !persisted {
				t.Fatal("overflow did not persist the block")
			}
			if c != 1<<MinorBits|1 {
				t.Fatalf("post-overflow counter = %d", c)
			}
		}
	}
	if overflows != 1 {
		t.Fatalf("%d overflows in 128 increments, want 1", overflows)
	}
	// The neighbour's minor was reset; its effective counter changed.
	if got := s.Counter(other); got != 1<<MinorBits {
		t.Fatalf("neighbour counter after overflow = %d", got)
	}
	// The overflow persisted the block: it survives a power failure.
	s.DropVolatile()
	if got := s.Counter(addr); got != 1<<MinorBits|1 {
		t.Fatalf("counter after crash = %d, want the persisted overflow", got)
	}
}

func TestDropVolatileLosesUnpersisted(t *testing.T) {
	s := newTestStore(4)
	addr := uint64(1 << 20)
	for i := 0; i < 6; i++ {
		increment(s, addr)
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
	increment(s, a)
	increment(s, b)
	s.PersistAddr(a)
	s.DropVolatile()
	if s.Counter(a) != 1 || s.Counter(b) != 0 {
		t.Fatalf("PersistAddr: a=%d b=%d", s.Counter(a), s.Counter(b))
	}
	increment(s, b)
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
		increment(s, addr)
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
	increment(s, addr)
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
			increment(s, addr)
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
	blockOf := func(addr uint64) uint64 { return s.BlockAddr(s.pageIndex(addr)) }
	a := blockOf(1 << 20)
	b := blockOf(1<<20 + nvm.PageSize)
	if a == b || b-a != BlockSize {
		t.Fatalf("block addrs %#x %#x", a, b)
	}
	// Lines within one page share a counter block.
	if blockOf(1<<20+64) != a {
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
	increment(s, 1<<20)
	increment(s, 1<<20+2*nvm.PageSize)
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
							increment(s, addr)
						}
					}
					pi := run.pageIndex(addr)
					slots := make([]uint8, n)
					for k := range slots {
						slots[k] = uint8(5 + k)
					}
					run.ApplyRun(pi, slots, persistEach)
					for _, li := range slots {
						blk := *ref.Live(pi)
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

func TestApplyBlockIdempotent(t *testing.T) {
	s := newTestStore(4)
	addr := uint64(1 << 20)
	pi := uint64(0)
	var b Block
	b.Minors[0] = 5
	s.ApplyBlock(pi, &b, false)
	s.ApplyBlock(pi, &b, false) // redo replay: same block twice
	if s.Counter(addr) != 5 {
		t.Fatalf("counter = %d after double apply", s.Counter(addr))
	}
}

func TestApplyBlockPersistPolicy(t *testing.T) {
	s := newTestStore(4)
	pi := uint64(0)
	var b Block
	for i := 1; i <= 8; i++ {
		b.Minors[0] = uint8(i)
		s.ApplyBlock(pi, &b, false)
	}
	if s.Persists() != 2 { // at applies 4 and 8
		t.Fatalf("persists = %d", s.Persists())
	}
	if got := s.StoredCounter(1 << 20); got != 8 {
		t.Fatalf("persisted counter = %d, want 8", got)
	}
	s.ApplyBlock(pi, &b, true) // forced
	if s.Persists() != 3 {
		t.Fatalf("forced persist missing: %d", s.Persists())
	}
}

func TestImageRestoreRoundTrip(t *testing.T) {
	s := newTestStore(4)
	addr := uint64(1 << 20)
	increment(s, addr)
	increment(s, addr)
	img := s.ImageByIndex(0)
	s.DropVolatile()
	s.RestoreByIndex(0, img)
	if s.Counter(addr) != 2 {
		t.Fatalf("restored counter = %d", s.Counter(addr))
	}
}

func TestPageIndexOfNVMAddr(t *testing.T) {
	s := newTestStore(4)
	base := s.BlockAddr(0)
	if pi, ok := s.PageIndexOfNVMAddr(base); !ok || pi != 0 {
		t.Fatalf("pi=%d ok=%v", pi, ok)
	}
	if pi, ok := s.PageIndexOfNVMAddr(base + BlockSize); !ok || pi != 1 {
		t.Fatalf("pi=%d ok=%v", pi, ok)
	}
	if _, ok := s.PageIndexOfNVMAddr(0); ok {
		t.Fatal("address below region accepted")
	}
	if _, ok := s.PageIndexOfNVMAddr(base + s.RegionBytes()); ok {
		t.Fatal("address past region accepted")
	}
}

func TestPeriodAccessor(t *testing.T) {
	if newTestStore(0).Period() != DefaultOsirisPeriod {
		t.Fatal("default period wrong")
	}
	if newTestStore(9).Period() != 9 {
		t.Fatal("explicit period wrong")
	}
}
