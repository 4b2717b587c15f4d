package cache

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// refCache is the cache as it was with a 24-byte line of separate
// valid, dirty and LRU-stamp fields and every set's ways in one dense
// array: the reference the packed 16-byte line and the inline ways with
// their overflow blocks must match operation for operation.
type refCache struct {
	sets, lineSize uint64
	ways           int
	lines          []refLine
	stamp          uint64

	hits, misses, evictions, writebacks uint64
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRefCache(size uint64, ways int, lineSize uint64) *refCache {
	sets := size / (uint64(ways) * lineSize)
	return &refCache{sets: sets, lineSize: lineSize, ways: ways, lines: make([]refLine, sets*uint64(ways))}
}

func (c *refCache) index(addr uint64) (set, tag uint64) {
	lineAddr := addr / c.lineSize
	return lineAddr % c.sets, lineAddr / c.sets
}

func (c *refCache) set(set uint64) []refLine {
	base := set * uint64(c.ways)
	return c.lines[base : base+uint64(c.ways)]
}

func (c *refCache) lookup(addr uint64) *refLine {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if l := &ways[i]; l.valid && l.tag == tag {
			return l
		}
	}
	return nil
}

func (c *refCache) Access(addr uint64, write bool) (hit bool, victim Victim, evicted bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	c.stamp++
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			c.hits++
			l.lru = c.stamp
			if write {
				l.dirty = true
			}
			return true, Victim{}, false
		}
	}
	c.misses++
	victim, evicted = c.install(set, ways, tag, write)
	return false, victim, evicted
}

func (c *refCache) Fill(addr uint64, dirty bool) (victim Victim, evicted bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	c.stamp++
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.lru = c.stamp
			if dirty {
				l.dirty = true
			}
			return Victim{}, false
		}
	}
	return c.install(set, ways, tag, dirty)
}

// install is the victim choice Access and Fill shared: the first
// invalid way, else the smallest LRU stamp.
func (c *refCache) install(set uint64, ways []refLine, tag uint64, dirty bool) (victim Victim, evicted bool) {
	vi := 0
	for i := range ways {
		if !ways[i].valid {
			vi = i
			break
		}
		if ways[i].lru < ways[vi].lru {
			vi = i
		}
	}
	v := &ways[vi]
	if v.valid {
		c.evictions++
		if v.dirty {
			c.writebacks++
		}
		victim = Victim{Addr: (v.tag*c.sets + set) * c.lineSize, Dirty: v.dirty}
		evicted = true
	}
	*v = refLine{tag: tag, valid: true, dirty: dirty, lru: c.stamp}
	return victim, evicted
}

func (c *refCache) RepeatHits(addrs []uint64, write bool, rounds uint64) bool {
	for _, a := range addrs {
		if c.lookup(a) == nil {
			return false
		}
	}
	if rounds == 0 {
		return true
	}
	n := uint64(len(addrs))
	last := c.stamp + (rounds-1)*n
	for i, a := range addrs {
		l := c.lookup(a)
		l.lru = last + uint64(i) + 1
		if write {
			l.dirty = true
		}
	}
	c.stamp += rounds * n
	c.hits += rounds * n
	return true
}

func (c *refCache) CleanLine(addr uint64) bool {
	l := c.lookup(addr)
	if l == nil {
		return false
	}
	wasDirty := l.dirty
	l.dirty = false
	return wasDirty
}

func (c *refCache) Invalidate(addr uint64) (present, dirty bool) {
	l := c.lookup(addr)
	if l == nil {
		return false, false
	}
	dirty = l.dirty
	*l = refLine{}
	return true, dirty
}

func (c *refCache) DirtyLines() []uint64 {
	var out []uint64
	for si := uint64(0); si < c.sets; si++ {
		for _, l := range c.set(si) {
			if l.valid && l.dirty {
				out = append(out, (l.tag*c.sets+si)*c.lineSize)
			}
		}
	}
	return out
}

func (c *refCache) InvalidateAll() { clear(c.lines) }

func (c *refCache) Occupancy() int {
	n := 0
	for _, l := range c.lines {
		if l.valid {
			n++
		}
	}
	return n
}

func TestLineIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Fatalf("line is %d bytes, want 16", got)
	}
}

// TestMatchesReference drives the cache and the reference with the same
// random operations and compares every result, counter, dirty-line set
// and occupancy after each one. Addresses crowd a few sets with more
// tags than ways, so evictions, dirty victims and re-fills are common,
// and the LLC's sets overflow their inline ways. The overflow subtest
// runs a fixed sequence through one set's overflow block.
func TestMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name  string
		size  uint64
		ways  int
		steps int
	}{
		{"tiny", 1024, 2, 20000},
		{"llc", LLCSize, LLCWays, 400},
	} {
		t.Run(g.name, func(t *testing.T) {
			c := New("t", g.size, g.ways, DataLineSize)
			ref := newRefCache(g.size, g.ways, DataLineSize)
			rng := rand.New(rand.NewSource(int64(len(g.name))))
			// addr is mostly a fresh draw, sometimes one of the last few
			// (likely still resident, so RepeatHits often succeeds).
			var recent [8]uint64
			addr := func() uint64 {
				if rng.Intn(3) == 0 {
					return recent[rng.Intn(len(recent))]
				}
				set := uint64(rng.Intn(4)) * (c.Sets() / 4)
				tag := uint64(rng.Intn(3 * g.ways))
				a := (tag*c.Sets()+set)*DataLineSize + uint64(rng.Intn(DataLineSize))
				recent[rng.Intn(len(recent))] = a
				return a
			}
			repeated := 0
			for step := 0; step < g.steps; step++ {
				var got, want []any
				switch op := rng.Intn(100); {
				case op < 40:
					a, w := addr(), rng.Intn(3) == 0
					h, v, e := c.Access(a, w)
					rh, rv, re := ref.Access(a, w)
					got, want = []any{"Access", h, v, e}, []any{"Access", rh, rv, re}
				case op < 60:
					a, d := addr(), rng.Intn(3) == 0
					v, e := c.Fill(a, d)
					rv, re := ref.Fill(a, d)
					got, want = []any{"Fill", v, e}, []any{"Fill", rv, re}
				case op < 75:
					addrs := make([]uint64, 1+rng.Intn(4))
					for i := range addrs {
						addrs[i] = addr()
					}
					w, rounds := rng.Intn(2) == 0, uint64(rng.Intn(4))
					ok := c.RepeatHits(addrs, w, rounds)
					if ok {
						repeated++
					}
					got = []any{"RepeatHits", ok}
					want = []any{"RepeatHits", ref.RepeatHits(addrs, w, rounds)}
				case op < 85:
					a := addr()
					got, want = []any{"CleanLine", c.CleanLine(a)}, []any{"CleanLine", ref.CleanLine(a)}
				case op < 95:
					a := addr()
					p, d := c.Invalidate(a)
					rp, rd := ref.Invalidate(a)
					got, want = []any{"Invalidate", p, d}, []any{"Invalidate", rp, rd}
				case op < 99:
					a := addr()
					got = []any{"Contains", c.Contains(a), c.IsDirty(a)}
					want = []any{"Contains", ref.lookup(a) != nil, ref.lookup(a) != nil && ref.lookup(a).dirty}
				default:
					c.InvalidateAll()
					ref.InvalidateAll()
				}
				matchState(t, step, c, ref, got, want)
			}
			if c.Evictions() == 0 || c.Writebacks() == 0 || repeated == 0 {
				t.Fatalf("the sequence evicted %d lines, %d dirty, and repeated hits %d times: it misses a path",
					c.Evictions(), c.Writebacks(), repeated)
			}
		})
	}
	t.Run("overflow", overflowSequence)
}

// matchState fails t unless the results got and want of one step
// agree, and so do the two caches' counters, occupancy and sorted
// dirty lines after it.
func matchState(t *testing.T, step int, c *Cache, ref *refCache, got, want []any) {
	t.Helper()
	got = append(got, c.Hits(), c.Misses(), c.Evictions(), c.Writebacks(), c.Occupancy())
	want = append(want, ref.hits, ref.misses, ref.evictions, ref.writebacks, ref.Occupancy())
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: got %v, want %v", step, got, want)
	}
	gd, wd := c.DirtyLines(), ref.DirtyLines()
	slices.Sort(gd)
	slices.Sort(wd)
	if !slices.Equal(gd, wd) {
		t.Fatalf("step %d: dirty lines %x, want %x", step, gd, wd)
	}
}

// overflowSequence walks one LLC set through its overflow block in a
// fixed order, checked against the reference after every step: it
// fills the set to all its ways, evicts from it, repeats hits over the
// lines the overflow block holds, drops every line while the set is
// overflowed and fills it again.
func overflowSequence(t *testing.T) {
	c := New("t", LLCSize, LLCWays, DataLineSize)
	ref := newRefCache(LLCSize, LLCWays, DataLineSize)
	const set = 5
	addr := func(tag uint64) uint64 { return (tag*c.Sets() + set) * DataLineSize }
	step := 0
	access := func(tag uint64, write bool) {
		t.Helper()
		h, v, e := c.Access(addr(tag), write)
		rh, rv, re := ref.Access(addr(tag), write)
		matchState(t, step, c, ref, []any{"Access", tag, h, v, e}, []any{"Access", tag, rh, rv, re})
		step++
	}
	fill := func(from, to uint64) {
		t.Helper()
		for tag := from; tag < to; tag++ {
			access(tag, tag%3 == 0)
		}
	}

	fill(0, LLCWays)
	if c.overflow(set) == nil || c.Occupancy() != LLCWays {
		t.Fatalf("a full set holds %d lines, overflow block %v", c.Occupancy(), c.overflow(set) != nil)
	}
	fill(LLCWays, LLCWays+3) // evicts tags 0, 1 and 2, the first dirty
	if c.Evictions() != 3 || c.Writebacks() != 1 {
		t.Fatalf("%d evictions, %d write-backs; want 3 and 1", c.Evictions(), c.Writebacks())
	}
	var inOver []uint64
	for _, l := range c.overflow(set) {
		inOver = append(inOver, (l.tag*c.Sets()+set)*DataLineSize)
	}
	for _, w := range []bool{false, true} {
		ok, rok := c.RepeatHits(inOver, w, 3), ref.RepeatHits(inOver, w, 3)
		matchState(t, step, c, ref, []any{"RepeatHits", ok}, []any{"RepeatHits", rok})
		step++
		if !ok {
			t.Fatalf("RepeatHits over the overflow block's %d lines missed", len(inOver))
		}
	}
	fill(200, 204) // the repeated lines are the recent ones: these evict the inline ways
	for _, a := range inOver {
		if !c.Contains(a) {
			t.Fatalf("line %#x of the overflow block was evicted before the inline ways", a)
		}
	}
	c.InvalidateAll()
	ref.InvalidateAll()
	matchState(t, step, c, ref, []any{"InvalidateAll"}, []any{"InvalidateAll"})
	step++
	if c.overflow(set) != nil {
		t.Fatal("InvalidateAll kept the set's overflow block")
	}
	fill(100, 100+LLCWays+2)
	for tag := uint64(100); tag < 100+LLCWays+2; tag++ {
		if got, want := c.Contains(addr(tag)), ref.lookup(addr(tag)) != nil; got != want {
			t.Fatalf("refilled tag %d: Contains %v, want %v", tag, got, want)
		}
	}
}
