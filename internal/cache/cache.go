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

// Cache is a set-associative write-back cache with LRU replacement.
// It tracks presence and dirtiness only; data contents live in the
// functional memory model. The zero value is not usable; use New.
type Cache struct {
	name     string
	sets     uint64
	ways     int
	lineSize uint64
	lines    []line // sets*ways entries
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
	return &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		lineSize:  lineSize,
		lines:     make([]line, sets*uint64(ways)),
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

func (c *Cache) set(set uint64) []line {
	base := set * uint64(c.ways)
	return c.lines[base : base+uint64(c.ways)]
}

// lookup returns addr's resident line, or nil.
func (c *Cache) lookup(addr uint64) *line {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		// l.use != 0 spelled out, not l.valid(): it keeps lookup within
		// the inliner's budget.
		if l := &ways[i]; l.tag == tag && l.use != 0 {
			return l
		}
	}
	return nil
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
	ways := c.set(set)
	c.stamp++
	for i := range ways {
		if l := &ways[i]; l.tag == tag && l.valid() {
			c.hits++
			l.touch(c.stamp, write)
			return true, Victim{}, false
		}
	}
	c.misses++
	victim, evicted = c.replace(set, ways, tag, write)
	return false, victim, evicted
}

// Fill inserts addr's line clean without counting a hit or miss (used when
// a lower level pushes a line upward, or after recovery reload). It returns
// any displaced victim.
func (c *Cache) Fill(addr uint64, dirty bool) (victim Victim, evicted bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	c.stamp++
	for i := range ways {
		if l := &ways[i]; l.tag == tag && l.valid() {
			l.touch(c.stamp, dirty)
			return Victim{}, false
		}
	}
	return c.replace(set, ways, tag, dirty)
}

// replace installs tag's line, stamped with the current stamp, in the
// set's first invalid way, or else over its least recently used line,
// and returns the line it displaced. An invalid way's use of 0 is below
// every resident line's, so the first smallest use is that way.
func (c *Cache) replace(set uint64, ways []line, tag uint64, dirty bool) (victim Victim, evicted bool) {
	vi := 0
	for i := 1; i < len(ways) && ways[vi].valid(); i++ {
		if ways[i].use < ways[vi].use {
			vi = i
		}
	}
	v := &ways[vi]
	if v.valid() {
		c.evictions++
		if v.dirty() {
			c.writebacks++
		}
		victim = Victim{Addr: (v.tag*c.sets + set) * c.lineSize, Dirty: v.dirty()}
		evicted = true
	}
	*v = line{tag: tag, use: c.stamp<<1 | b2u(dirty)}
	return victim, evicted
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
// whether it was dirty (clflush semantics).
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
// order. Used by the Anubis-style shadow tracker and by drain-on-crash
// audits of the metadata caches.
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for si := uint64(0); si < c.sets; si++ {
		for _, l := range c.set(si) {
			if l.dirty() {
				out = append(out, (l.tag*c.sets+si)*c.lineSize)
			}
		}
	}
	return out
}

// InvalidateAll drops every line (a power failure destroys volatile state).
func (c *Cache) InvalidateAll() {
	clear(c.lines)
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, l := range c.lines {
		if l.valid() {
			n++
		}
	}
	return n
}
