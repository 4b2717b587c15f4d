// Package bmt implements the 8-ary Bonsai Merkle Tree protecting the
// encryption-counter region. Leaves are 64-byte counter blocks; each
// internal node holds the 8-byte MACs of its 8 children; the root MAC
// lives in a persistent in-processor register (the AGIT scheme of Anubis:
// the root is updated eagerly and persistently on every write, interior
// nodes are updated in the volatile metadata cache and persisted lazily).
//
// The simulated tree is eager, but the host computes a MAC only where
// some reader can observe it (DESIGN.md §18): a write marks the leaf's
// level-1 slot and the slots above it stale, and a bottom-up recompute
// fills them — the leaf slot from the leaf image source the tree was
// built with — before any node image, the root register or a
// verification walk reads them. Every observable byte equals what
// hashing the full path on every write produces.
//
// Sparse convention: an all-zero parent slot denotes a never-initialized
// child whose image is all zeroes. This lets a 16 GB tree exist without
// materializing untouched subtrees, while preserving verification
// semantics for every block that has ever been written.
package bmt

import (
	"fmt"
	"math/bits"

	"dolos/internal/crypt"
	"dolos/internal/dense"
	"dolos/internal/nvm"
)

// Arity is the tree fan-out.
const Arity = 8

// NodeSize is the NVM size of one interior node (8 child MACs).
const NodeSize = Arity * crypt.MACSize

// nodeState is the overlay bookkeeping of one interior node. dirty marks
// a live image newer than its NVM copy. stale has bit s set when child
// slot s holds an outdated MAC that the next recompute must refill (on
// level 1 the child is a leaf, hashed from the leaf source). A node with
// stale bits is dirty, or else it owes NVM its image (see owes).
type nodeState struct {
	dirty bool
	stale uint8
}

// LeafSource returns the current 64-byte image of a leaf: the counter
// block the tree hashes when it fills a stale leaf slot.
type LeafSource func(index uint64) [64]byte

// Tree is the Bonsai Merkle Tree state machine. Interior node images live
// in a volatile overlay (the metadata cache's architectural content) and
// are persisted to an NVM region on demand; the root register is modeled
// as persistent (battery-backed processor register, as in AGIT).
type Tree struct {
	eng      crypt.Dispatch
	leaf     LeafSource
	dev      *nvm.Device
	wb       *nvm.WriteBack // the node region, written back when observed
	nodeBase uint64
	leaves   uint64
	counts   []uint64 // counts[l] = number of nodes at level l (counts[0] = leaves)
	offsets  []uint64 // NVM offset of each interior level within the node region

	// volatile[l] and state[l] hold the overlay of interior level l
	// (1..levels; slot 0 is unused — leaves live in the counter region),
	// indexed by node index within the level. Dense per-level tables
	// sized from counts[l] keep the per-write path walk array indexing
	// (DESIGN.md §12); dirtyCount tracks the number of dirty nodes.
	volatile   []*dense.Table[*[NodeSize]byte]
	state      []*dense.Table[nodeState]
	dirtyCount int
	// sourced has bit s of level-1 node i set when a full verification
	// walk filled its slot s from the leaf source (sourcing is set
	// during the walk), and the leaf has not changed since: verifying
	// that leaf again passes by construction, so an audit hashes each
	// leaf once. A table of its own, allocated by the first full walk,
	// so the per-level state stays two bytes a node and a run that only
	// writes and reads allocates nothing more.
	sourced  *dense.Table[uint8]
	sourcing bool // a full walk is filling leaves

	// root is the root register. rootStale marks it as awaiting the MAC
	// of the top node, which every write changes.
	root      crypt.MAC
	rootSet   bool
	rootStale bool

	// owedDepth is the write-through depth of the updates since the
	// last full refresh (0: none). A clean node with stale bits on a
	// level up to it owes NVM its live image: a write-through update
	// persisted it, and its stale MACs are filled and the image written
	// when something observes it.
	owedDepth int

	macOps  uint64
	updates uint64
}

// New creates a tree over `leaves` 64-byte leaf blocks, storing interior
// nodes at nodeBase in dev. The tree holds no leaf images: it reads them
// from leaf when it hashes a leaf, and the leaf source must change a
// leaf's image only together with UpdateLeaf (RebuildFromLeaves takes
// its images as an argument).
func New(eng crypt.Provider, dev *nvm.Device, nodeBase uint64, leaves uint64, leaf LeafSource) *Tree {
	if leaves == 0 {
		panic("bmt: zero leaves")
	}
	t := &Tree{
		eng:      crypt.AsDispatch(eng),
		leaf:     leaf,
		dev:      dev,
		nodeBase: nodeBase,
		leaves:   leaves,
	}
	t.counts = []uint64{leaves}
	n := leaves
	for n > 1 {
		n = (n + Arity - 1) / Arity
		t.counts = append(t.counts, n)
	}
	t.offsets = make([]uint64, len(t.counts))
	var off uint64
	for l := 1; l < len(t.counts); l++ {
		t.offsets[l] = off
		off += t.counts[l] * NodeSize
	}
	t.volatile = make([]*dense.Table[*[NodeSize]byte], len(t.counts))
	t.state = make([]*dense.Table[nodeState], len(t.counts))
	for l := 1; l < len(t.counts); l++ {
		t.volatile[l] = dense.NewTable[*[NodeSize]byte](t.counts[l])
		t.state[l] = dense.NewTable[nodeState](t.counts[l])
	}
	t.wb = dev.SetWriteBack(nodeBase, nodeBase+off, t.writeBack)
	return t
}

// Levels returns the number of interior levels (excluding leaves,
// including the single top node whose MAC is the root register).
func (t *Tree) Levels() int { return len(t.counts) - 1 }

// Leaves returns the number of leaf slots.
func (t *Tree) Leaves() uint64 { return t.leaves }

// RegionBytes returns the NVM bytes needed for interior nodes.
func (t *Tree) RegionBytes() uint64 {
	var total uint64
	for l := 1; l < len(t.counts); l++ {
		total += t.counts[l] * NodeSize
	}
	return total
}

// MACOps returns the cumulative number of MACs the host has computed.
// The modeled count the timing model charges is separate: UpdateLeaf
// and the verify calls return it, and masu.Cost carries it.
func (t *Tree) MACOps() uint64 { return t.macOps }

// Updates returns the number of leaf updates applied.
func (t *Tree) Updates() uint64 { return t.updates }

// Root returns the current root MAC register value.
func (t *Tree) Root() crypt.MAC {
	t.freshRoot()
	return t.root
}

// SetRoot forces the root register (recovery bootstrapping).
func (t *Tree) SetRoot(m crypt.MAC) { t.root, t.rootSet, t.rootStale = m, true, false }

// NodeNVMAddr returns the NVM address where the interior node at (level,
// index) is persisted; this is the address the MT metadata cache uses.
func (t *Tree) NodeNVMAddr(level int, index uint64) uint64 {
	if level < 1 || level >= len(t.counts) {
		panic(fmt.Sprintf("bmt: bad level %d", level))
	}
	return t.nodeBase + t.offsets[level] + index*NodeSize
}

// position tags a node for MAC domain separation.
func position(level int, index uint64) uint64 { return uint64(level)<<56 | index }

// node returns the live image of interior node (level, index), reading
// from NVM on first touch.
func (t *Tree) node(level int, index uint64) *[NodeSize]byte {
	slot := t.volatile[level].Ptr(index)
	if *slot == nil {
		line := t.dev.ReadLine(t.NodeNVMAddr(level, index))
		img := new([NodeSize]byte)
		*img = line
		*slot = img
	}
	return *slot
}

// markDirty flags a node's live image as newer than its NVM copy.
func (t *Tree) markDirty(st *nodeState) {
	if !st.dirty {
		st.dirty = true
		t.dirtyCount++
	}
}

func isZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// leafMAC computes the MAC of leaf `index` holding image.
func (t *Tree) leafMAC(index uint64, image *[64]byte) crypt.MAC {
	t.macOps++
	return t.eng.NodeMAC(image[:], position(0, index))
}

// hashLeaf hashes the leaf source's current image of leaf `index`.
func (t *Tree) hashLeaf(index uint64) crypt.MAC {
	img := t.leaf(index)
	return t.leafMAC(index, &img)
}

// nodeMAC computes the MAC of an interior node image.
func (t *Tree) nodeMAC(level int, index uint64, image *[NodeSize]byte) crypt.MAC {
	t.macOps++
	return t.eng.NodeMAC(image[:], position(level, index))
}

// UpdateLeaf records that the leaf source's image of leaf `index`
// changed. It computes no MAC: the leaf's level-1 slot and every slot
// above it (the root register at the top) turn stale until observed.
// The first `through` levels of the path are write-through (Triad-NVM's
// persisted levels): each such node turns clean and owes NVM its live
// image, written back when observed, as if persisted now. Every other
// ancestor turns dirty. The walk stops at the first slot already stale
// above the write-through levels: every ancestor above it is stale and
// dirty too. Once an update writes levels through, every update until
// the next full refresh (Root, DropVolatile, RestoreNode,
// RebuildFromLeaves) must pass the same through; it panics otherwise. It returns the modeled MAC
// count of an eager update, Levels()+1 (9 for a 16 GB tree — plus the
// data MAC this makes the paper's 10).
func (t *Tree) UpdateLeaf(index uint64, through int) int { return t.UpdateLeafRun(index, through, 1) }

// UpdateLeafRun is UpdateLeaf for n consecutive updates of leaf `index`
// with nothing observing the tree between them: each update after the
// first finds the path already stale and changes only the count.
func (t *Tree) UpdateLeafRun(index uint64, through int, n uint64) int {
	if index >= t.leaves {
		panic(fmt.Sprintf("bmt: leaf %d out of range", index))
	}
	if t.owedDepth != 0 && through != t.owedDepth {
		panic(fmt.Sprintf("bmt: write-through depth %d while nodes owe depth %d", through, t.owedDepth))
	}
	if through > 0 {
		t.owedDepth = through
		t.wb.Mark()
	}
	t.updates += n
	t.rootSet, t.rootStale = true, true
	idx := index
	marking := true
	for level := 1; level < len(t.counts); level++ {
		bit := uint8(1) << (idx % Arity)
		idx /= Arity
		if level == 1 {
			t.unsource(idx, bit)
		}
		st := t.state[level].Ptr(idx)
		if marking && st.stale&bit != 0 {
			marking = false
		}
		if level > through && !marking {
			break
		}
		if marking {
			t.node(level, idx)
			st.stale |= bit
		}
		if level > through {
			t.markDirty(st)
		} else if st.dirty {
			st.dirty = false
			t.dirtyCount--
		}
	}
	return len(t.counts)
}

// owes reports whether node (level, st) owes NVM its live image.
func (t *Tree) owes(level int, st nodeState) bool {
	return level <= t.owedDepth && !st.dirty && st.stale != 0
}

// writeBack is the device's flush for the node region: it refreshes,
// and so writes, every owing node whose line overlaps [lo, hi).
func (t *Tree) writeBack(lo, hi uint64) {
	for l := 1; l <= t.owedDepth && l < len(t.counts); l++ {
		base := t.nodeBase + t.offsets[l]
		end := base + t.counts[l]*NodeSize
		if hi <= base || lo >= end {
			continue
		}
		if lo <= base && hi >= end {
			t.state[l].Range(func(idx uint64, st *nodeState) bool {
				if t.owes(l, *st) {
					t.fresh(l, idx)
				}
				return true
			})
			continue
		}
		for idx := (max(lo, base) - base) / NodeSize; idx <= (min(hi, end)-1-base)/NodeSize; idx++ {
			if t.owes(l, t.state[l].Get(idx)) {
				t.fresh(l, idx)
			}
		}
	}
}

// fresh refills every stale slot of node (level, index), refreshing each
// stale child first, so writes that share ancestors hash each shared
// node once. A level-1 node hashes its stale leaves from the leaf
// source. A node that owed NVM its image writes it.
func (t *Tree) fresh(level int, index uint64) {
	st := t.state[level].Ptr(index)
	if st.stale == 0 {
		return
	}
	owed := t.owes(level, *st)
	img := t.volatile[level].Get(index)
	for m := st.stale; m != 0; m &= m - 1 {
		s := uint64(bits.TrailingZeros8(m))
		c := index*Arity + s
		var mac crypt.MAC
		if level == 1 {
			mac = t.hashLeaf(c)
		} else {
			t.fresh(level-1, c)
			mac = t.nodeMAC(level-1, c, t.volatile[level-1].Get(c))
		}
		copy(img[s*crypt.MACSize:], mac[:])
	}
	if level == 1 && t.sourcing {
		if t.sourced == nil {
			t.sourced = dense.NewTable[uint8](t.counts[1])
		}
		*t.sourced.Ptr(index) |= st.stale
	}
	st.stale = 0
	if owed {
		t.dev.WriteLine(t.NodeNVMAddr(level, index), *img)
	}
}

// freshRoot refills every stale slot in the tree and the root register.
func (t *Tree) freshRoot() {
	top := len(t.counts) - 1
	if top > 0 {
		t.fresh(top, 0)
	}
	// Every stale node is reachable from the top through stale slots, so
	// nothing owes NVM its image any more.
	t.owedDepth = 0
	if !t.rootStale {
		return
	}
	if top == 0 {
		t.root = t.hashLeaf(0)
	} else {
		t.root = t.nodeMAC(top, 0, t.node(top, 0))
	}
	t.rootStale = false
}

// RootAfter returns the root register value the tree would hold once
// leaf `index` took image, without changing the tree: the temp root of
// a staged redo record.
func (t *Tree) RootAfter(index uint64, image *[64]byte) crypt.MAC {
	t.freshRoot()
	mac := t.leafMAC(index, image)
	child := index
	for level := 1; level < len(t.counts); level++ {
		idx := child / Arity
		img := *t.node(level, idx)
		copy(img[child%Arity*crypt.MACSize:], mac[:])
		mac = t.nodeMAC(level, idx, &img)
		child = idx
	}
	return mac
}

// VerifyError describes an integrity-verification failure.
type VerifyError struct {
	Level int
	Index uint64
	Want  crypt.MAC
	Got   crypt.MAC
}

// Error implements the error interface.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("bmt: integrity violation at level %d index %d: stored %x computed %x",
		e.Level, e.Index, e.Want, e.Got)
}

// VerifyLeaf checks the leaf source's image of leaf `index` against the
// tree path, stopping early at the first trusted on-chip (dirty) node as
// hardware does at run time. It returns the modeled number of MAC
// computations and an error describing the first mismatching level, if
// any.
func (t *Tree) VerifyLeaf(index uint64) (int, error) {
	return t.verify(index, true)
}

// VerifyLeafFull checks the leaf source's image of leaf `index` along
// the entire path up to and including the root register, with no
// trusted-cache short-circuit. This is the recovery-time check: after a
// crash nothing on-chip is trusted except the root register itself.
func (t *Tree) VerifyLeafFull(index uint64) (int, error) {
	return t.verify(index, false)
}

func (t *Tree) verify(index uint64, trustCached bool) (int, error) {
	if !trustCached {
		// Leaves a full walk fills turn sourced.
		t.sourcing = true
		defer func() { t.sourcing = false }()
	}
	macs := 1
	var image [64]byte
	var mac crypt.MAC
	if st, sourced := t.leafState(index); (st.stale|sourced)&(1<<(index%Arity)) != 0 {
		// The leaf slot holds, or awaits, the MAC of the source's image:
		// it passes by construction. On a dirty node a trusted walk
		// ends here without hashing anything.
		if trustCached && st.dirty {
			return macs, nil
		}
		t.fresh(1, index/Arity)
		copy(mac[:], t.volatile[1].Get(index / Arity)[index%Arity*crypt.MACSize:])
	} else {
		image = t.leaf(index)
		mac = t.leafMAC(index, &image)
	}
	child := index
	level := 0
	for level = 1; level < len(t.counts); level++ {
		idx := child / Arity
		slot := child % Arity
		img := t.node(level, idx)
		st := t.state[level].Get(idx)
		if bit := uint8(1) << slot; st.stale&bit != 0 {
			// The slot awaits the MAC of the child image just hashed
			// (fresh: a walked node is refreshed before hashing).
			copy(img[slot*crypt.MACSize:], mac[:])
			owed := t.owes(level, st)
			p := t.state[level].Ptr(idx)
			p.stale &^= bit
			if owed && p.stale == 0 {
				t.dev.WriteLine(t.NodeNVMAddr(level, idx), *img)
			}
		}
		var stored crypt.MAC
		copy(stored[:], img[slot*crypt.MACSize:])
		if stored != mac {
			// Zero-slot convention: untouched child must be all-zero.
			if isZero(stored[:]) && level == 1 && isZero(image[:]) {
				return macs, nil
			}
			return macs, &VerifyError{Level: level - 1, Index: child, Want: stored, Got: mac}
		}
		if trustCached && st.dirty {
			// The node is live on-chip (metadata cache); once verified
			// against it the path is trusted without walking to the
			// root.
			return macs, nil
		}
		t.fresh(level, idx)
		mac = t.nodeMAC(level, idx, img)
		macs++
		child = idx
	}
	if t.rootStale {
		t.root, t.rootStale = mac, false
	}
	if t.rootSet && mac != t.root {
		return macs, &VerifyError{Level: level - 1, Index: 0, Want: t.root, Got: mac}
	}
	return macs, nil
}

// leafState returns the bookkeeping of leaf `index`'s level-1 node and
// its sourced slots (zero for a tree without interior levels).
func (t *Tree) leafState(index uint64) (nodeState, uint8) {
	if len(t.counts) == 1 {
		return nodeState{}, 0
	}
	var sourced uint8
	if t.sourced != nil {
		sourced = t.sourced.Get(index / Arity)
	}
	return t.state[1].Get(index / Arity), sourced
}

// unsource clears sourced slots of level-1 node idx.
func (t *Tree) unsource(idx uint64, slots uint8) {
	if t.sourced != nil && t.sourced.Get(idx)&slots != 0 {
		*t.sourced.Ptr(idx) &^= slots
	}
}

// PersistNode writes an interior node image to its NVM home (metadata
// cache eviction of a dirty block, or Anubis shadow replay).
func (t *Tree) PersistNode(level int, index uint64) {
	if level < 1 || level >= len(t.counts) {
		return
	}
	img := t.volatile[level].Get(index)
	if img == nil {
		return
	}
	t.fresh(level, index)
	t.dev.WriteLine(t.NodeNVMAddr(level, index), *img)
	if st := t.state[level].Ptr(index); st.dirty {
		st.dirty = false
		t.dirtyCount--
	}
}

// PersistAll writes every live interior node to NVM (clean shutdown),
// level by level in ascending index order.
func (t *Tree) PersistAll() {
	for l := 1; l < len(t.counts); l++ {
		t.volatile[l].Range(func(idx uint64, img **[NodeSize]byte) bool {
			if *img != nil {
				t.PersistNode(l, idx)
			}
			return true
		})
	}
}

// DirtyNodes returns the (level, index) pairs of interior nodes whose
// live image is newer than their NVM copy, for the Anubis shadow
// tracker (NodeImage reads the images).
func (t *Tree) DirtyNodes() [][2]uint64 {
	out := make([][2]uint64, 0, t.dirtyCount)
	for l := 1; l < len(t.counts); l++ {
		t.state[l].Range(func(idx uint64, st *nodeState) bool {
			if st.dirty {
				out = append(out, [2]uint64{uint64(l), idx})
			}
			return true
		})
	}
	return out
}

// NodeImage returns a copy of the live image of an interior node.
func (t *Tree) NodeImage(level int, index uint64) [NodeSize]byte {
	t.fresh(level, index)
	return *t.node(level, index)
}

// RestoreNode installs an interior node image directly (Anubis shadow
// replay during recovery). Pending MACs, stale leaves included, are
// computed first, so the parent slot and the root keep the replaced
// image's MAC.
func (t *Tree) RestoreNode(level int, index uint64, img [NodeSize]byte) {
	t.freshRoot()
	slot := t.volatile[level].Ptr(index)
	if *slot == nil {
		*slot = new([NodeSize]byte)
	}
	**slot = img
	if level == 1 {
		t.unsource(index, 0xFF)
	}
	t.markDirty(t.state[level].Ptr(index))
}

// DropVolatile models power failure: the overlay (metadata cache content)
// is lost; NVM copies and the persistent root register survive. The
// tree is refreshed first, which writes back the nodes that owe NVM
// their images and the root register: both reflect every applied write.
func (t *Tree) DropVolatile() {
	t.freshRoot()
	for l := 1; l < len(t.counts); l++ {
		t.volatile[l].Reset()
		t.state[l].Reset()
	}
	t.sourced = nil
	t.dirtyCount = 0
}

// RebuildFromLeaves recomputes the tree bottom-up from the given leaf
// images (index -> image) — the Osiris slow-recovery path after counters
// have been re-identified. It returns the recomputed root without
// modifying the root register; the caller compares it against Root().
func (t *Tree) RebuildFromLeaves(leafImages map[uint64][64]byte) crypt.MAC {
	// Pending MACs, stale leaves included, and owed NVM copies belong to
	// the images the rebuild overwrites.
	t.freshRoot()
	// Recompute affected paths; untouched subtrees stay under the
	// zero-slot convention.
	type pending struct {
		level int
		index uint64
	}
	touched := make(map[pending]bool)
	for idx, img := range leafImages {
		img := img
		mac := t.leafMAC(idx, &img)
		parent := t.node(1, idx/Arity)
		copy(parent[(idx%Arity)*crypt.MACSize:], mac[:])
		t.unsource(idx/Arity, 1<<(idx%Arity))
		touched[pending{1, idx / Arity}] = true
	}
	for level := 1; level < len(t.counts)-1; level++ {
		next := make(map[pending]bool)
		for p := range touched {
			if p.level != level {
				next[p] = true
				continue
			}
			img := t.node(level, p.index)
			mac := t.nodeMAC(level, p.index, img)
			parent := t.node(level+1, p.index/Arity)
			copy(parent[(p.index%Arity)*crypt.MACSize:], mac[:])
			next[pending{level + 1, p.index / Arity}] = true
		}
		touched = next
	}
	top := t.node(len(t.counts)-1, 0)
	return t.nodeMAC(len(t.counts)-1, 0, top)
}
