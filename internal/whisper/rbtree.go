package whisper

import "dolos/internal/trace"

// RBtree is the WHISPER persistent red-black tree: every insert runs the
// classic rebalance (recolor + rotations), so a transaction touches a
// handful of scattered nodes in addition to the payload — the most
// pointer-update-heavy of the tree workloads.
type RBtree struct{}

// Name implements Workload.
func (RBtree) Name() string { return "RBtree" }

// Node layout (one line):
//
//	+0 key  +8 value addr  +16 left  +24 right  +32 parent  +40 color
const (
	rbKey    = 0
	rbVal    = 8
	rbLeft   = 16
	rbRight  = 24
	rbParent = 32
	rbColor  = 40

	rbRed   = 1
	rbBlack = 0
)

type rbtreeState struct {
	*session
	rootSlot uint64
}

func (r *rbtreeState) root() uint64           { return r.heap.ReadU64(r.rootSlot) }
func (r *rbtreeState) key(n uint64) uint64    { return r.heap.ReadU64(n + rbKey) }
func (r *rbtreeState) left(n uint64) uint64   { return r.heap.ReadU64(n + rbLeft) }
func (r *rbtreeState) right(n uint64) uint64  { return r.heap.ReadU64(n + rbRight) }
func (r *rbtreeState) parent(n uint64) uint64 { return r.heap.ReadU64(n + rbParent) }
func (r *rbtreeState) color(n uint64) uint64 {
	if n == 0 {
		return rbBlack // nil leaves are black
	}
	return r.heap.ReadU64(n + rbColor)
}

func (r *rbtreeState) setLink(n uint64, off uint64, v uint64) { r.tx.StoreU64(n+off, v) }

// rotateLeft rotates n leftward (inside the open transaction).
func (r *rbtreeState) rotateLeft(n uint64) {
	r.compute(60)
	p := r.parent(n)
	q := r.right(n)
	qLeft := r.left(q)
	r.setLink(n, rbRight, qLeft)
	if qLeft != 0 {
		r.setLink(qLeft, rbParent, n)
	}
	r.setLink(q, rbLeft, n)
	r.setLink(n, rbParent, q)
	r.setLink(q, rbParent, p)
	r.replaceChild(p, n, q)
}

// rotateRight rotates n rightward.
func (r *rbtreeState) rotateRight(n uint64) {
	r.compute(60)
	p := r.parent(n)
	q := r.left(n)
	qRight := r.right(q)
	r.setLink(n, rbLeft, qRight)
	if qRight != 0 {
		r.setLink(qRight, rbParent, n)
	}
	r.setLink(q, rbRight, n)
	r.setLink(n, rbParent, q)
	r.setLink(q, rbParent, p)
	r.replaceChild(p, n, q)
}

// replaceChild repoints p's link from oldC to newC (root slot when p==0).
func (r *rbtreeState) replaceChild(p, oldC, newC uint64) {
	if p == 0 {
		r.tx.StoreU64(r.rootSlot, newC)
		return
	}
	if r.left(p) == oldC {
		r.setLink(p, rbLeft, newC)
	} else {
		r.setLink(p, rbRight, newC)
	}
}

// put inserts or updates key with a fresh payload.
func (r *rbtreeState) put(key uint64) {
	// Walk down (read traffic) to find the attach point.
	var parent uint64
	var goLeft bool
	n := r.root()
	for n != 0 {
		r.compute(30)
		k := r.key(n)
		if k == key {
			// Update in place.
			val := r.payload(key)
			r.tx.Begin()
			r.tx.Store(r.heap.ReadU64(n+rbVal), val)
			r.tx.Commit()
			return
		}
		parent = n
		goLeft = key < k
		if goLeft {
			n = r.left(n)
		} else {
			n = r.right(n)
		}
	}

	val := r.payload(key)
	r.tx.Begin()
	vaddr := r.heap.Alloc(uint64(len(val)))
	node := r.heap.Alloc(64)
	r.tx.StoreFresh(vaddr, val)
	r.tx.StoreFreshU64(node+rbKey, key)
	r.tx.StoreFreshU64(node+rbVal, vaddr)
	r.tx.StoreFreshU64(node+rbParent, parent)
	r.tx.StoreFreshU64(node+rbColor, rbRed)
	if parent == 0 {
		r.tx.StoreU64(r.rootSlot, node)
	} else if goLeft {
		r.setLink(parent, rbLeft, node)
	} else {
		r.setLink(parent, rbRight, node)
	}
	r.fixInsert(node)
	r.tx.Commit()
}

// fixInsert restores red-black invariants after attaching a red node.
func (r *rbtreeState) fixInsert(n uint64) {
	for {
		p := r.parent(n)
		if p == 0 {
			r.tx.StoreU64(n+rbColor, rbBlack)
			return
		}
		if r.color(p) == rbBlack {
			return
		}
		g := r.parent(p)
		var uncle uint64
		if r.left(g) == p {
			uncle = r.right(g)
		} else {
			uncle = r.left(g)
		}
		if r.color(uncle) == rbRed {
			r.tx.StoreU64(p+rbColor, rbBlack)
			r.tx.StoreU64(uncle+rbColor, rbBlack)
			r.tx.StoreU64(g+rbColor, rbRed)
			n = g
			continue
		}
		if r.left(g) == p {
			if r.right(p) == n {
				r.rotateLeft(p)
				n, p = p, n
			}
			r.tx.StoreU64(p+rbColor, rbBlack)
			r.tx.StoreU64(g+rbColor, rbRed)
			r.rotateRight(g)
		} else {
			if r.left(p) == n {
				r.rotateRight(p)
				n, p = p, n
			}
			r.tx.StoreU64(p+rbColor, rbBlack)
			r.tx.StoreU64(g+rbColor, rbRed)
			r.rotateLeft(g)
		}
		return
	}
}

// get walks to key.
func (r *rbtreeState) get(key uint64) uint64 {
	n := r.root()
	for n != 0 {
		r.compute(30)
		k := r.key(n)
		if k == key {
			return r.heap.ReadU64(n + rbVal)
		}
		if key < k {
			n = r.left(n)
		} else {
			n = r.right(n)
		}
	}
	return 0
}

// Generate implements Workload.
func (RBtree) Generate(p Params) *trace.Trace {
	s := newSession(RBtree{}, p)
	r := &rbtreeState{session: s}
	r.rootSlot = s.heap.Alloc(64)

	keyRange := uint64(s.p.Warmup + s.p.Transactions*2)
	for i := 0; i < s.p.Warmup; i++ {
		r.put(s.rng.Uint64() % keyRange)
	}
	s.record()
	for i := 0; i < s.p.Transactions; i++ {
		key := s.rng.Uint64() % keyRange
		if s.rng.Intn(4) == 0 {
			r.get(s.rng.Uint64() % keyRange)
		}
		r.put(key)
	}
	return s.rec.Finish()
}
