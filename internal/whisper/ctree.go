package whisper

import "dolos/internal/trace"

// Ctree is the WHISPER crit-bit tree: internal nodes test one bit of the
// key; leaves hold (key, value). Inserts splice one new internal node and
// one new leaf, so the structural footprint per transaction is small and
// most of the payload is the value itself.
type Ctree struct{}

// Name implements Workload.
func (Ctree) Name() string { return "Ctree" }

// Node layouts (one line each):
//
//	internal: +0 bit index (1..64), +8 left, +16 right
//	leaf:     +0 bit index = 0 marker, +8 key, +16 value addr
const (
	ctBit   = 0
	ctLeft  = 8
	ctRight = 16
	ctKey   = 8
	ctVal   = 16
)

type ctreeState struct {
	*session
	rootSlot uint64 // address of the root pointer
}

func (c *ctreeState) isLeaf(n uint64) bool { return c.heap.ReadU64(n+ctBit) == 0 }

func bitOf(key uint64, bit uint64) uint64 { return (key >> (64 - bit)) & 1 }

// descend walks to the leaf key would belong to, returning the leaf and
// the link slot that points at it.
func (c *ctreeState) descend(key uint64) (leaf, link uint64) {
	link = c.rootSlot
	n := c.heap.ReadU64(link)
	for n != 0 && !c.isLeaf(n) {
		c.compute(25)
		bit := c.heap.ReadU64(n + ctBit)
		if bitOf(key, bit) == 0 {
			link = n + ctLeft
		} else {
			link = n + ctRight
		}
		n = c.heap.ReadU64(link)
	}
	return n, link
}

// critBit finds the highest differing bit position (1-based from MSB).
func critBit(a, b uint64) uint64 {
	x := a ^ b
	bit := uint64(1)
	for mask := uint64(1) << 63; mask != 0; mask >>= 1 {
		if x&mask != 0 {
			return bit
		}
		bit++
	}
	return 0
}

// put inserts or updates key.
func (c *ctreeState) put(key uint64) {
	leaf, link := c.descend(key)
	val := c.payload(key)

	c.tx.Begin()
	if leaf == 0 {
		// Empty slot: write the first leaf.
		vaddr := c.heap.Alloc(uint64(len(val)))
		naddr := c.heap.Alloc(64)
		c.tx.StoreFresh(vaddr, val)
		c.tx.StoreFreshU64(naddr+ctKey, key)
		c.tx.StoreFreshU64(naddr+ctVal, vaddr)
		c.tx.StoreU64(link, naddr)
		c.tx.Commit()
		return
	}
	existing := c.heap.ReadU64(leaf + ctKey)
	if existing == key {
		// Update the payload in place (undo-logged).
		c.tx.Store(c.heap.ReadU64(leaf+ctVal), val)
		c.tx.Commit()
		return
	}
	// Splice a new internal node above the differing bit. Re-descend to
	// the correct insertion link: the first node testing a bit below the
	// crit bit.
	bit := critBit(existing, key)
	c.compute(60)
	link = c.rootSlot
	n := c.heap.ReadU64(link)
	for n != 0 && !c.isLeaf(n) && c.heap.ReadU64(n+ctBit) < bit {
		if bitOf(key, c.heap.ReadU64(n+ctBit)) == 0 {
			link = n + ctLeft
		} else {
			link = n + ctRight
		}
		n = c.heap.ReadU64(link)
	}

	vaddr := c.heap.Alloc(uint64(len(val)))
	newLeaf := c.heap.Alloc(64)
	inner := c.heap.Alloc(64)
	c.tx.StoreFresh(vaddr, val)
	c.tx.StoreFreshU64(newLeaf+ctKey, key)
	c.tx.StoreFreshU64(newLeaf+ctVal, vaddr)
	c.tx.StoreFreshU64(inner+ctBit, bit)
	if bitOf(key, bit) == 0 {
		c.tx.StoreFreshU64(inner+ctLeft, newLeaf)
		c.tx.StoreFreshU64(inner+ctRight, n)
	} else {
		c.tx.StoreFreshU64(inner+ctLeft, n)
		c.tx.StoreFreshU64(inner+ctRight, newLeaf)
	}
	c.tx.StoreU64(link, inner)
	c.tx.Commit()
}

// get walks to key (read traffic).
func (c *ctreeState) get(key uint64) uint64 {
	leaf, _ := c.descend(key)
	if leaf != 0 && c.heap.ReadU64(leaf+ctKey) == key {
		return c.heap.ReadU64(leaf + ctVal)
	}
	return 0
}

// Generate implements Workload.
func (Ctree) Generate(p Params) *trace.Trace {
	s := newSession(Ctree{}, p)
	c := &ctreeState{session: s}
	c.rootSlot = s.heap.Alloc(64)

	keyRange := uint64(s.p.Warmup + s.p.Transactions*2)
	for i := 0; i < s.p.Warmup; i++ {
		c.put(s.rng.Uint64() % keyRange)
	}
	s.record()
	for i := 0; i < s.p.Transactions; i++ {
		key := s.rng.Uint64() % keyRange
		if s.rng.Intn(4) == 0 {
			c.get(s.rng.Uint64() % keyRange)
		}
		c.put(key)
	}
	return s.rec.Finish()
}
