package whisper

import "dolos/internal/trace"

// Btree is the WHISPER persistent B+tree: order-8 nodes, values stored
// out-of-line, every insert a durable transaction.
type Btree struct{}

// Name implements Workload.
func (Btree) Name() string { return "Btree" }

// B+tree node layout (4 lines = 256 B):
//
//	+0   nkeys
//	+8   leaf flag (1 = leaf)
//	+16  keys[7]
//	+72  children[8] (internal) or values[7]+next (leaf)
const (
	btreeOrder    = 8 // max children; max keys = 7
	btreeNodeSize = 256
	btNKeys       = 0
	btLeaf        = 8
	btKeys        = 16
	btPtrs        = 72
)

type btreeState struct {
	*session
	root uint64
}

func (b *btreeState) newNode(leaf bool) uint64 {
	n := b.heap.Alloc(btreeNodeSize)
	if leaf {
		// Freshly allocated nodes are zero; only the flag needs setting.
		b.heap.WriteU64(n+btLeaf, 1)
	}
	return n
}

func (b *btreeState) nkeys(n uint64) uint64 { return b.heap.ReadU64(n + btNKeys) }
func (b *btreeState) isLeaf(n uint64) bool  { return b.heap.ReadU64(n+btLeaf) == 1 }
func (b *btreeState) key(n uint64, i int) uint64 {
	return b.heap.ReadU64(n + btKeys + uint64(i)*8)
}
func (b *btreeState) ptr(n uint64, i int) uint64 {
	return b.heap.ReadU64(n + btPtrs + uint64(i)*8)
}

// findSlot returns the insertion point within a leaf (first index whose
// key is >= key).
func (b *btreeState) findSlot(n uint64, key uint64) int {
	cnt := int(b.nkeys(n))
	i := 0
	for i < cnt && b.key(n, i) < key {
		b.compute(15)
		i++
	}
	return i
}

// descendSlot returns the child index to follow in an internal node.
// Keys equal to a separator descend right, because leaf splits copy the
// median key into the right sibling.
func (b *btreeState) descendSlot(n uint64, key uint64) int {
	cnt := int(b.nkeys(n))
	i := 0
	for i < cnt && key >= b.key(n, i) {
		b.compute(15)
		i++
	}
	return i
}

// insert adds (key -> payload) into the tree, splitting full nodes on the
// way down (proactive splitting keeps the transaction footprint bounded).
func (b *btreeState) insert(key uint64) {
	val := b.payload(key)
	b.tx.Begin()
	vaddr := b.heap.Alloc(uint64(len(val)))
	b.tx.StoreFresh(vaddr, val)

	if b.nkeys(b.root) == btreeOrder-1 {
		// Split the root: new root with one key.
		oldRoot := b.root
		newRoot := b.newNode(false)
		b.tx.StoreFreshU64(newRoot+btPtrs, oldRoot)
		b.splitChild(newRoot, 0, oldRoot)
		b.root = newRoot
	}

	n := b.root
	for !b.isLeaf(n) {
		b.compute(40)
		i := b.descendSlot(n, key)
		child := b.ptr(n, i)
		if b.nkeys(child) == btreeOrder-1 {
			b.splitChild(n, i, child)
			i = b.descendSlot(n, key)
			child = b.ptr(n, i)
		}
		n = child
	}

	// Insert into the (non-full) leaf: shift keys/values right.
	cnt := int(b.nkeys(n))
	i := b.findSlot(n, key)
	if i < cnt && b.key(n, i) == key {
		// Update: point the slot at the new value (old value abandoned).
		b.tx.StoreU64(n+btPtrs+uint64(i)*8, vaddr)
		b.tx.Commit()
		return
	}
	for j := cnt; j > i; j-- {
		b.tx.StoreU64(n+btKeys+uint64(j)*8, b.key(n, j-1))
		b.tx.StoreU64(n+btPtrs+uint64(j)*8, b.ptr(n, j-1))
	}
	b.tx.StoreU64(n+btKeys+uint64(i)*8, key)
	b.tx.StoreU64(n+btPtrs+uint64(i)*8, vaddr)
	b.tx.StoreU64(n+btNKeys, uint64(cnt+1))
	b.tx.Commit()
}

// splitChild splits full child at parent slot i (inside the open tx).
func (b *btreeState) splitChild(parent uint64, i int, child uint64) {
	b.compute(120)
	mid := (btreeOrder - 1) / 2 // 3
	right := b.newNode(b.isLeaf(child))
	leaf := b.isLeaf(child)

	// Move the upper keys into the new right node.
	moved := btreeOrder - 1 - mid - 1 // keys above the median
	if leaf {
		moved = btreeOrder - 1 - mid // leaves keep the median copy right
	}
	for j := 0; j < moved; j++ {
		src := mid + 1 + j
		if leaf {
			src = mid + j
		}
		b.tx.StoreFreshU64(right+btKeys+uint64(j)*8, b.key(child, src))
		b.tx.StoreFreshU64(right+btPtrs+uint64(j)*8, b.ptr(child, src))
	}
	if !leaf {
		for j := 0; j <= moved; j++ {
			b.tx.StoreFreshU64(right+btPtrs+uint64(j)*8, b.ptr(child, mid+1+j))
		}
	}
	b.tx.StoreFreshU64(right+btNKeys, uint64(moved))

	// Shrink the child.
	b.tx.StoreU64(child+btNKeys, uint64(mid))

	// Shift the parent's keys/pointers right and link the new node.
	cnt := int(b.nkeys(parent))
	for j := cnt; j > i; j-- {
		b.tx.StoreU64(parent+btKeys+uint64(j)*8, b.key(parent, j-1))
		b.tx.StoreU64(parent+btPtrs+uint64(j+1)*8, b.ptr(parent, j))
	}
	b.tx.StoreU64(parent+btKeys+uint64(i)*8, b.key(child, mid))
	b.tx.StoreU64(parent+btPtrs+uint64(i+1)*8, right)
	b.tx.StoreU64(parent+btNKeys, uint64(cnt+1))
}

// get walks to key (read traffic only).
func (b *btreeState) get(key uint64) uint64 {
	n := b.root
	for !b.isLeaf(n) {
		b.compute(40)
		n = b.ptr(n, b.descendSlot(n, key))
	}
	i := b.findSlot(n, key)
	if i < int(b.nkeys(n)) && b.key(n, i) == key {
		return b.ptr(n, i)
	}
	return 0
}

// Generate implements Workload.
func (Btree) Generate(p Params) *trace.Trace {
	s := newSession(Btree{}, p)
	b := &btreeState{session: s}
	b.root = b.newNode(true)

	keyRange := uint64(s.p.Warmup + s.p.Transactions*2)
	for i := 0; i < s.p.Warmup; i++ {
		b.insert(s.rng.Uint64() % keyRange)
	}
	s.record()
	for i := 0; i < s.p.Transactions; i++ {
		key := s.rng.Uint64() % keyRange
		if s.rng.Intn(5) == 0 {
			b.get(key) // occasional point lookups between inserts
		}
		b.insert(key)
	}
	return s.rec.Finish()
}
