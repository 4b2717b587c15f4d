// Package cache implements the set-associative write-back caches of the
// simulated system: the L1/L2/LLC data hierarchy the persistent workloads
// run against (Table 1) and the counter / Merkle-tree metadata caches
// inside the secure memory controller.
package cache

import "fmt"

// line is one cache line's state in 16 bytes. use packs the line's
// last-touch stamp and dirty bit as stamp<<1 | dirty, and 0 means the
// way is invalid: the cache's stamp starts at 1, so a resident line's
// use is at least 2. No two resident lines share a stamp, so the
// resident line with the smallest use is the least recently used one.
type line struct {
	tag uint64
	use uint64
}

func (l *line) valid() bool { return l.use != 0 }
func (l *line) dirty() bool { return l.use&1 != 0 }

// touch stamps the line as used at stamp, setting it dirty if dirty
// and keeping it dirty if it was.
func (l *line) touch(stamp uint64, dirty bool) {
	l.use = stamp<<1 | l.use&1 | b2u(dirty)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Victim describes a line evicted by a fill.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// inlineWays is the most ways a set of a packed cache keeps inline.
// Four 16-byte lines fill one 64-byte host cache line, and a benchmark
// cell holds 3-13% of its LLC's lines, never more than four in a set
// (DESIGN.md §12).
const inlineWays = 4

// packedLines is the size, in lines, above which a cache packs its
// sets. A smaller cache keeps every way inline: a cell fills the L2
// (8,192 lines), where a split set costs every lookup a second scan,
// and a small cache's whole line array is cheap.
const packedLines = 1 << 16

// Cache is a set-associative write-back cache with LRU replacement.
// It tracks presence and dirtiness only; data contents live in the
// functional memory model. The zero value is not usable; use New.
//
// Each set of a cache of more than packedLines lines keeps its first
// min(ways, inlineWays) ways inline, in one array; a smaller cache keeps
// them all there. The rest of a set's ways live in an overflow block,
// taken from one slab the first time the set needs one more line than
// its inline ways hold; overIdx, allocated at the cache's first
// overflow, holds each set's block number plus one, or 0 for none. A
// cache that keeps every way inline never overflows.
type Cache struct {
	name     string
	sets     uint64
	ways     int
	lineSize uint64
	inWays   uint64 // inline ways per set
	overWays uint64 // ways-inWays: an overflow block's lines
	inline   []line // sets*inWays entries
	over     []line // overflow blocks of overWays entries each
	overIdx  []uint32
	stamp    uint64

	// lineShift/setMask are the shift-and-mask form of the index
	// computation. Geometry is power-of-two by construction, and index()
	// runs on every access of every cache level, where a hardware-style
	// div/mod by a runtime value costs more than the lookup itself.
	lineShift uint
	setShift  uint
	setMask   uint64

	hits, misses, evictions, writebacks uint64
}

// New creates a cache. size and lineSize are in bytes; the geometry
// must pass CheckGeometry, as the Table 1 configurations do.
func New(name string, size uint64, ways int, lineSize uint64) *Cache {
	if err := CheckGeometry(size, ways, lineSize); err != nil {
		panic(fmt.Sprintf("cache %s: %v", name, err))
	}
	sets := size / (uint64(ways) * lineSize)
	lineShift := uint(0)
	for 1<<lineShift != lineSize {
		lineShift++
	}
	setShift := uint(0)
	for 1<<setShift != sets {
		setShift++
	}
	inWays := uint64(ways)
	if sets*inWays > packedLines {
		inWays = min(inWays, inlineWays)
	}
	return &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		lineSize:  lineSize,
		inWays:    inWays,
		overWays:  uint64(ways) - inWays,
		inline:    make([]line, sets*inWays),
		lineShift: lineShift,
		setShift:  setShift,
		setMask:   sets - 1,
	}
}

// CheckGeometry reports a geometry New refuses: size must be a nonzero
// multiple of ways*lineSize, and lineSize and the resulting set count
// powers of two.
func CheckGeometry(size uint64, ways int, lineSize uint64) error {
	if ways <= 0 || lineSize == 0 || size == 0 {
		return fmt.Errorf("invalid geometry: size %d, %d ways, line size %d", size, ways, lineSize)
	}
	setBytes := uint64(ways) * lineSize
	if size%setBytes != 0 {
		return fmt.Errorf("size %d not a multiple of ways*lineSize %d", size, setBytes)
	}
	if sets := size / setBytes; sets&(sets-1) != 0 {
		return fmt.Errorf("%d sets not a power of two", sets)
	}
	if lineSize&(lineSize-1) != 0 {
		return fmt.Errorf("line size %d not a power of two", lineSize)
	}
	return nil
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() uint64 { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() uint64 { return c.lineSize }

// Hits returns the number of hits observed.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses observed.
func (c *Cache) Misses() uint64 { return c.misses }

// Evictions returns the number of valid lines displaced by fills.
func (c *Cache) Evictions() uint64 { return c.evictions }

// Writebacks returns the number of dirty lines displaced by fills.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> c.lineShift
	return lineAddr & c.setMask, lineAddr >> c.setShift
}

// inlineSet returns the set's inline ways.
func (c *Cache) inlineSet(set uint64) []line {
	base := set * c.inWays
	return c.inline[base : base+c.inWays]
}

// overflow returns the set's overflow block, or nil if it has none.
func (c *Cache) overflow(set uint64) []line {
	if c.overIdx == nil {
		return nil
	}
	end := uint64(c.overIdx[set]) * c.overWays
	if end == 0 {
		return nil
	}
	return c.over[end-c.overWays : end]
}

// grow gives the set an overflow block of invalid lines and returns
// it. The index is allocated at the cache's first overflow.
func (c *Cache) grow(set uint64) []line {
	if c.overIdx == nil {
		c.overIdx = make([]uint32, c.sets)
	}
	c.over = append(c.over, make([]line, c.overWays)...)
	c.overIdx[set] = uint32(uint64(len(c.over)) / c.overWays)
	return c.over[uint64(len(c.over))-c.overWays:]
}

// findInline returns the resident line with tag among the set's inline
// ways, or nil. It stays within the inliner's budget: Access and Fill
// run it on every access of every cache level.
func (c *Cache) findInline(set, tag uint64) *line {
	ways := c.inlineSet(set)
	for i := range ways {
		// l.use != 0 spelled out, not l.valid(): it keeps findInline
		// within the inliner's budget.
		if l := &ways[i]; l.tag == tag && l.use != 0 {
			return l
		}
	}
	return nil
}

// findOver is findInline over the set's overflow block.
func (c *Cache) findOver(set, tag uint64) *line {
	ways := c.overflow(set)
	for i := range ways {
		if l := &ways[i]; l.tag == tag && l.valid() {
			return l
		}
	}
	return nil
}

// lookup returns addr's resident line, or nil. It scans the overflow
// block only if the cache has overflowed. lookup is past the inliner's
// budget, so Access and Fill spell its two steps out instead of calling
// it, and both scans inline into them.
func (c *Cache) lookup(addr uint64) *line {
	set, tag := c.index(addr)
	l := c.findInline(set, tag)
	if l == nil && c.overIdx != nil {
		l = c.findOver(set, tag)
	}
	return l
}

// Contains reports whether addr's line is present, without touching LRU
// state or statistics.
func (c *Cache) Contains(addr uint64) bool { return c.lookup(addr) != nil }

// IsDirty reports whether addr's line is present and dirty.
func (c *Cache) IsDirty(addr uint64) bool {
	l := c.lookup(addr)
	return l != nil && l.dirty()
}

// Access looks up addr, filling on miss. write marks the line dirty.
// It returns whether the access hit, and, when a fill displaced a valid
// line, the victim (evicted == true).
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim, evicted bool) {
	set, tag := c.index(addr)
	c.stamp++
	l := c.findInline(set, tag)
	if l == nil && c.overIdx != nil {
		l = c.findOver(set, tag)
	}
	if l != nil {
		c.hits++
		l.touch(c.stamp, write)
		return true, Victim{}, false
	}
	c.misses++
	_, victim, evicted = c.replace(set, tag, write)
	return false, victim, evicted
}

// AccessHint is Access for a caller that remembers where addr's line
// was: hint is the way it was last found or filled at, or -1 for none.
// The hinted way is checked by tag, so a line that has been evicted or
// replaced since, or a hint into an overflow block, is looked up as
// Access looks it up; the hits, misses, stamps, victims and dirty bits
// are exactly Access's. way is where addr's line is after the access,
// the next hint.
func (c *Cache) AccessHint(addr uint64, write bool, hint int) (hit bool, victim Victim, evicted bool, way int) {
	set, tag := c.index(addr)
	c.stamp++
	base := set * c.inWays
	var l *line
	if w := uint64(hint); w < c.inWays { // -1 wraps past every way
		if h := &c.inline[base+w]; h.tag == tag && h.use != 0 {
			l, way = h, hint
		}
	}
	for i := uint64(0); l == nil && i < c.inWays; i++ {
		if h := &c.inline[base+i]; h.tag == tag && h.use != 0 {
			l, way = h, int(i)
		}
	}
	if l == nil && c.overIdx != nil {
		over := c.overflow(set)
		for i := range over {
			if over[i].tag == tag && over[i].valid() {
				l, way = &over[i], int(c.inWays)+i
				break
			}
		}
	}
	if l != nil {
		c.hits++
		l.touch(c.stamp, write)
		return true, Victim{}, false, way
	}
	c.misses++
	way, victim, evicted = c.replace(set, tag, write)
	return false, victim, evicted, way
}

// Fill inserts addr's line clean without counting a hit or miss (used when
// a lower level pushes a line upward, or after recovery reload). It returns
// any displaced victim.
func (c *Cache) Fill(addr uint64, dirty bool) (victim Victim, evicted bool) {
	set, tag := c.index(addr)
	c.stamp++
	l := c.findInline(set, tag)
	if l == nil && c.overIdx != nil {
		l = c.findOver(set, tag)
	}
	if l != nil {
		l.touch(c.stamp, dirty)
		return Victim{}, false
	}
	_, victim, evicted = c.replace(set, tag, dirty)
	return victim, evicted
}

// replace installs tag's line, stamped with the current stamp, in the
// set's first invalid way, or else over its least recently used line,
// and returns the way it took and the line it displaced. An invalid
// way's use of 0 is below every resident line's, so the first smallest
// use is that way. The ways run inline first, then through the overflow
// block; a set whose inline ways are all resident and that has no block
// yet takes one, and its first way is the invalid one.
func (c *Cache) replace(set uint64, tag uint64, dirty bool) (way int, victim Victim, evicted bool) {
	ways := c.inlineSet(set)
	v := &ways[0]
	for i := 1; i < len(ways) && v.valid(); i++ {
		if ways[i].use < v.use {
			v, way = &ways[i], i
		}
	}
	if v.valid() && c.overWays != 0 {
		ways = c.overflow(set)
		if ways == nil {
			ways = c.grow(set)
		}
		for i := 0; i < len(ways) && v.valid(); i++ {
			if ways[i].use < v.use {
				v, way = &ways[i], int(c.inWays)+i
			}
		}
	}
	if v.valid() {
		c.evictions++
		if v.dirty() {
			c.writebacks++
		}
		victim = Victim{Addr: (v.tag*c.sets + set) * c.lineSize, Dirty: v.dirty()}
		evicted = true
	}
	*v = line{tag: tag, use: c.stamp<<1 | b2u(dirty)}
	return way, victim, evicted
}

// RepeatHits replays rounds passes over addrs, in order, as Access calls
// that all hit: the hit count, the LRU stamps and the dirty bits end
// exactly as those calls leave them. Unless every address is resident
// it changes nothing and returns false.
func (c *Cache) RepeatHits(addrs []uint64, write bool, rounds uint64) bool {
	for _, a := range addrs {
		if c.lookup(a) == nil {
			return false
		}
	}
	if rounds == 0 {
		return true
	}
	n := uint64(len(addrs))
	last := c.stamp + (rounds-1)*n // the stamp before the final pass
	for i, a := range addrs {
		c.lookup(a).touch(last+uint64(i)+1, write)
	}
	c.stamp += rounds * n
	c.hits += rounds * n
	return true
}

// CleanLine clears the dirty bit of addr's line if present (a write-back
// that keeps the line, i.e. clwb semantics). It reports whether the line
// was present and dirty.
func (c *Cache) CleanLine(addr uint64) bool {
	l := c.lookup(addr)
	if l == nil {
		return false
	}
	wasDirty := l.dirty()
	l.use &^= 1
	return wasDirty
}

// Invalidate removes addr's line, returning whether it was present and
// whether it was dirty (clflush semantics). No simulator path calls it:
// a persist cleans its line (CleanLine) and keeps it, and a crash drops
// every line (InvalidateAll). The tests compare it with a reference
// cache's.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	l := c.lookup(addr)
	if l == nil {
		return false, false
	}
	dirty = l.dirty()
	*l = line{}
	return true, dirty
}

// DirtyLines returns the addresses of all dirty lines, in no particular
// order. No simulator path calls it: the Ma-SU's shadow tracker keeps
// its own table of dirty metadata blocks, and a crash drops every line
// (InvalidateAll). The tests compare it with a reference cache's.
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for si := uint64(0); si < c.sets; si++ {
		for _, ways := range [2][]line{c.inlineSet(si), c.overflow(si)} {
			for _, l := range ways {
				if l.dirty() {
					out = append(out, (l.tag*c.sets+si)*c.lineSize)
				}
			}
		}
	}
	return out
}

// InvalidateAll drops every line (a power failure destroys volatile
// state) and every overflow block; the slab and the index keep their
// memory for the sets that overflow again.
func (c *Cache) InvalidateAll() {
	clear(c.inline)
	c.over = c.over[:0]
	clear(c.overIdx)
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, ways := range [2][]line{c.inline, c.over} {
		for _, l := range ways {
			if l.valid() {
				n++
			}
		}
	}
	return n
}
