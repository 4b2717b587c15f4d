// Package toc implements an SGX-style 8-ary Tree of Counters (ToC)
// protecting the encryption-counter region, as used for Dolos' lazy-update
// experiments (Section 5.4). Each interior node holds 8 version counters
// — one per child — and an 8-byte MAC computed over the node's versions
// and the node's own version stored in its parent. Version increments
// propagate to the root on every update, but the MAC recomputation of all
// levels can run in parallel given parallel MAC engines (the paper assumes
// parallel AES-GCM units), which is why the serial-latency cost charged by
// the timing model is lower than an eager Merkle tree.
//
// The simulated hardware recomputes every path MAC on every update; the
// host computes a MAC only where something reads it (DESIGN.md §18). An
// update marks each path node stale and the leaf's MAC stale; persisting
// or imaging a stale node computes its MAC first, and a verification
// walk accepts it, as its MAC is by construction what the check
// computes. Leaf MACs live in an NVM region the tree owns and writes
// back: a stale leaf's MAC is hashed from the leaf image source the tree
// was built with and written only when an access observes the region.
// Every observable byte equals what the eager recomputation produces.
//
// For crash consistency a lazily-updated ToC cannot rely on an eager
// persistent root alone (inter-level dependencies); Phoenix therefore
// protects the metadata cache with a small eagerly-updated shadow Merkle
// tree. Here the shadow protection is modeled by the same shadow-tracking
// interface the Ma-SU uses for the BMT: dirty node images are captured and
// replayed at recovery, then verified against the persistent root version.
package toc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"dolos/internal/crypt"
	"dolos/internal/dense"
	"dolos/internal/nvm"
)

// Arity is the tree fan-out.
const Arity = 8

// NodeSize is the serialized node size: 8 versions of 7 bytes + 8-byte MAC.
const NodeSize = 64

// versionMask limits versions to 56 bits so they fit the packed layout.
const versionMask = 1<<56 - 1

// MaxLevels bounds the interior levels of any tree: 8^22 > 2^64 leaves.
const MaxLevels = 22

// Node is one ToC node: per-child version counters plus the node MAC.
type Node struct {
	Versions [Arity]uint64 // 56-bit values
	MAC      crypt.MAC

	// stale marks a live node whose MAC is not yet recomputed after one
	// of its versions, or its parent's version for it, changed. A stale
	// node is always dirty; the NVM image never carries the bit.
	stale bool
	// staleLeaves, on a level-1 node, has bit s set when leaf child s
	// has a MAC newer than its copy in the leaf-MAC region: the MAC of
	// the leaf source's image under Versions[s], not yet computed.
	staleLeaves uint8
}

// LeafSource returns the current 64-byte image of a leaf: the counter
// block the tree hashes when it writes a stale leaf MAC back.
type LeafSource func(index uint64) [64]byte

// Encode packs the node into its 64-byte NVM image.
func (n *Node) Encode() [NodeSize]byte {
	var out [NodeSize]byte
	for i, v := range n.Versions {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v&versionMask)
		copy(out[i*7:i*7+7], tmp[:7])
	}
	copy(out[56:], n.MAC[:])
	return out
}

// DecodeNode unpacks a 64-byte image.
func DecodeNode(img [NodeSize]byte) Node {
	var n Node
	for i := range n.Versions {
		var tmp [8]byte
		copy(tmp[:7], img[i*7:i*7+7])
		n.Versions[i] = binary.LittleEndian.Uint64(tmp[:])
	}
	copy(n.MAC[:], img[56:])
	return n
}

// Tree is the Tree of Counters over `leaves` counter blocks. The root
// version register is persistent in-processor state; everything else
// lives in the volatile overlay until persisted.
type Tree struct {
	eng      crypt.Dispatch
	leaf     LeafSource
	dev      *nvm.Device
	nodeBase uint64
	leaves   uint64
	counts   []uint64
	offsets  []uint64

	// volatile[l] and dirty[l] mirror the bmt layout: per-level dense
	// tables over node index (slot 0 unused), replacing the former
	// map[{level,index}] lookups (DESIGN.md §12).
	volatile   []*dense.Table[*Node]
	dirty      []*dense.Table[bool]
	dirtyCount int
	rootVer    uint64 // persistent root version register
	leafBase   uint64 // NVM address of the leaf-MAC region
	leafWB     *nvm.WriteBack

	macOps  uint64
	updates uint64
}

// New creates a ToC over `leaves` leaf blocks with interior nodes stored
// at nodeBase in dev, followed by the leaf-MAC region (LeafMACAddr),
// which the tree registers as dev's write-back region. The tree reads
// leaf images from leaf when it writes a leaf MAC back; the leaf source
// must change a leaf's image only together with Apply.
func New(eng crypt.Provider, dev *nvm.Device, nodeBase uint64, leaves uint64, leaf LeafSource) *Tree {
	if leaves == 0 {
		panic("toc: zero leaves")
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
	t.volatile = make([]*dense.Table[*Node], len(t.counts))
	t.dirty = make([]*dense.Table[bool], len(t.counts))
	for l := 1; l < len(t.counts); l++ {
		t.volatile[l] = dense.NewTable[*Node](t.counts[l])
		t.dirty[l] = dense.NewTable[bool](t.counts[l])
	}
	t.leafBase = nodeBase + off
	t.leafWB = dev.SetWriteBack(t.leafBase, t.leafBase+leaves*crypt.MACSize, t.writeBack)
	return t
}

// markDirty flags (level, index) as newer in the overlay than in NVM.
func (t *Tree) markDirty(level int, index uint64) {
	p := t.dirty[level].Ptr(index)
	if !*p {
		*p = true
		t.dirtyCount++
	}
}

// Levels returns the number of interior levels.
func (t *Tree) Levels() int { return len(t.counts) - 1 }

// Leaves returns the number of leaf slots.
func (t *Tree) Leaves() uint64 { return t.leaves }

// RootVersion returns the persistent root version register.
func (t *Tree) RootVersion() uint64 { return t.rootVer }

// MACOps returns the cumulative number of MACs the host has computed.
// The modeled count the timing model charges is separate (masu.Cost).
func (t *Tree) MACOps() uint64 { return t.macOps }

// Updates returns the number of leaf updates.
func (t *Tree) Updates() uint64 { return t.updates }

// RegionBytes returns NVM bytes needed for interior nodes.
func (t *Tree) RegionBytes() uint64 {
	var total uint64
	for l := 1; l < len(t.counts); l++ {
		total += t.counts[l] * NodeSize
	}
	return total
}

// LeafMACAddr returns the NVM home of leaf `index`'s MAC: the leaf-MAC
// region follows the interior nodes.
func (t *Tree) LeafMACAddr(index uint64) uint64 {
	return t.leafBase + index*crypt.MACSize
}

// NodeNVMAddr returns the NVM home of node (level, index).
func (t *Tree) NodeNVMAddr(level int, index uint64) uint64 {
	if level < 1 || level >= len(t.counts) {
		panic(fmt.Sprintf("toc: bad level %d", level))
	}
	return t.nodeBase + t.offsets[level] + index*NodeSize
}

func (t *Tree) node(level int, index uint64) *Node {
	slot := t.volatile[level].Ptr(index)
	if *slot == nil {
		img := t.dev.ReadLine(t.NodeNVMAddr(level, index))
		decoded := DecodeNode(img)
		*slot = &decoded
	}
	return *slot
}

// parentVersion returns the version of node (level, index) as recorded in
// its parent — or the root register for the top node.
func (t *Tree) parentVersion(level int, index uint64) uint64 {
	if level == len(t.counts)-1 {
		return t.rootVer
	}
	return t.node(level+1, index/Arity).Versions[index%Arity]
}

func position(level int, index uint64) uint64 { return uint64(level)<<56 | index }

// nodeMAC computes a node's MAC over its versions and its parent version.
func (t *Tree) nodeMAC(level int, index uint64, n *Node, parentVer uint64) crypt.MAC {
	t.macOps++
	var buf [Arity*8 + 8]byte
	for i, v := range n.Versions {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	binary.LittleEndian.PutUint64(buf[Arity*8:], parentVer)
	return t.eng.NodeMAC(buf[:], position(level, index))
}

// leafMAC binds a leaf image to its version in the level-1 node.
func (t *Tree) leafMAC(index uint64, image *[64]byte, version uint64) crypt.MAC {
	t.macOps++
	var buf [72]byte
	copy(buf[:64], image[:])
	binary.LittleEndian.PutUint64(buf[64:], version)
	return t.eng.NodeMAC(buf[:], position(0, index))
}

// Update is one leaf update staged for the Ma-SU redo-log registers:
// the absolute version arrays every path node takes, so applying it
// twice (a redo replay) leaves the same state as once. Whole arrays, not
// just the path slots: a replay after a crash overwrites any tampering
// of a restored path node's other slots with the trusted on-chip
// values, as installing whole node copies would.
type Update struct {
	Leaf uint64
	// Versions[l-1] is the new version array of the path's level-l node.
	Versions [MaxLevels][Arity]uint64
	RootVer  uint64
	// Writes is the number of leaf writes the update stands for.
	Writes uint64
}

// Stage computes, without installing, the update that writing leaf
// `index` makes: every version on the path and the root version advance
// by one. It computes no MAC; the timing model charges Levels()+1, all
// parallel.
func (t *Tree) Stage(u *Update, index uint64) { t.StageRun(u, index, 1) }

// StageRun is Stage for n consecutive writes of leaf `index`: every
// version on the path and the root version advance by n, exactly as n
// staged and applied updates advance them one at a time.
func (t *Tree) StageRun(u *Update, index, n uint64) {
	if index >= t.leaves {
		panic(fmt.Sprintf("toc: leaf %d out of range", index))
	}
	u.Leaf, u.Writes = index, n
	child := index
	for level := 1; level < len(t.counts); level++ {
		vs := &u.Versions[level-1]
		*vs = t.node(level, child/Arity).Versions
		vs[child%Arity] = (vs[child%Arity] + n) & versionMask
		child /= Arity
	}
	u.RootVer = t.rootVer + n
}

// Apply installs a staged update: the path nodes' version arrays and the
// root register take their new values, every path node turns dirty and
// stale, and so does the leaf's MAC, which binds the leaf source's image
// (already the new one) to its new version. A stale MAC is computed when
// something reads it. No other update may be applied between Stage and
// Apply (the Ma-SU holds one staged op), so the arrays differ from the
// live ones off the path only where a restore has changed them since,
// and a restore writes its node's stale leaf MACs back first: no stale
// leaf MAC changes version here but the written leaf's.
func (t *Tree) Apply(u *Update) {
	t.updates += u.Writes
	child := u.Leaf
	for level := 1; level < len(t.counts); level++ {
		idx := child / Arity
		n := t.node(level, idx)
		n.Versions = u.Versions[level-1]
		n.stale = true
		if level == 1 {
			n.staleLeaves |= 1 << (u.Leaf % Arity)
		}
		t.markDirty(level, idx)
		child = idx
	}
	t.rootVer = u.RootVer
	t.leafWB.Mark()
}

// refresh computes a stale node's MAC from its versions and its parent's
// version for it. Neither depends on another node's MAC, so a node is
// refreshed on its own, in any order.
func (t *Tree) refresh(level int, index uint64) {
	if n := t.volatile[level].Get(index); n != nil && n.stale {
		n.MAC = t.nodeMAC(level, index, n, t.parentVersion(level, index))
		n.stale = false
	}
}

// writeLeaves writes back the MACs of the stale leaves of level-1 node n
// (index idx) that mask selects. Each bit clears before its write, so
// the write's own observation of the region finds nothing to flush.
func (t *Tree) writeLeaves(n *Node, idx uint64, mask uint8) {
	for m := n.staleLeaves & mask; m != 0; m &= m - 1 {
		s := uint64(bits.TrailingZeros8(m))
		n.staleLeaves &^= 1 << s
		leaf := idx*Arity + s
		img := t.leaf(leaf)
		mac := t.leafMAC(leaf, &img, n.Versions[s])
		t.dev.Write(t.LeafMACAddr(leaf), mac[:])
	}
}

// writeBack is the device's flush for the leaf-MAC region: it writes
// every stale leaf MAC that overlaps [lo, hi).
func (t *Tree) writeBack(lo, hi uint64) {
	first := (lo - t.leafBase) / crypt.MACSize
	last := (hi - 1 - t.leafBase) / crypt.MACSize
	if first == 0 && last == t.leaves-1 {
		t.writeAllLeaves()
		return
	}
	for idx := first / Arity; idx <= last/Arity; idx++ {
		n := t.volatile[1].Get(idx)
		if n == nil || n.staleLeaves == 0 {
			continue
		}
		mask := uint8(0xFF)
		if idx == first/Arity {
			mask &= 0xFF << (first % Arity)
		}
		if idx == last/Arity {
			mask &= 0xFF >> (Arity - 1 - last%Arity)
		}
		t.writeLeaves(n, idx, mask)
	}
}

// writeAllLeaves writes back every stale leaf MAC.
func (t *Tree) writeAllLeaves() {
	if len(t.counts) == 1 {
		return
	}
	t.volatile[1].Range(func(idx uint64, n **Node) bool {
		if *n != nil && (*n).staleLeaves != 0 {
			t.writeLeaves(*n, idx, 0xFF)
		}
		return true
	})
}

// VerifyLeaf checks the leaf source's image of leaf `index` and its
// stored MAC against the version chain up to the root register. Dirty
// (on-chip) nodes short-circuit the walk exactly as in the BMT.
func (t *Tree) VerifyLeaf(index uint64) error {
	return t.verify(index, true)
}

// VerifyLeafFull is the recovery-time variant with no trusted-cache
// short-circuit.
func (t *Tree) VerifyLeafFull(index uint64) error {
	return t.verify(index, false)
}

func (t *Tree) verify(index uint64, trustCached bool) error {
	// A stale leaf MAC passes by construction, as a stale node does: it
	// is the MAC of the source's image under the live version, which is
	// what the check would compute. It is hashed when something reads it.
	if n := t.node(1, index/Arity); n.staleLeaves&(1<<(index%Arity)) == 0 {
		var stored crypt.MAC
		t.dev.Read(t.LeafMACAddr(index), stored[:])
		ver := n.Versions[index%Arity]
		img := t.leaf(index)
		if got := t.leafMAC(index, &img, ver); got != stored {
			return fmt.Errorf("toc: leaf %d MAC mismatch (version %d)", index, ver)
		}
	}
	if trustCached && t.dirty[1].Get(index/Arity) {
		return nil
	}
	child := index
	for level := 1; level < len(t.counts); level++ {
		idx := child / Arity
		// A stale node passes by construction: its MAC is whatever the
		// check would compute. It is hashed when something reads it.
		if n := t.node(level, idx); !n.stale {
			if want := t.nodeMAC(level, idx, n, t.parentVersion(level, idx)); n.MAC != want {
				return fmt.Errorf("toc: node MAC mismatch at level %d index %d", level, idx)
			}
		}
		if trustCached && level+1 < len(t.counts) && t.dirty[level+1].Get(idx/Arity) {
			return nil
		}
		child = idx
	}
	return nil
}

// PersistNode writes node (level, index) to NVM.
func (t *Tree) PersistNode(level int, index uint64) {
	if level < 1 || level >= len(t.counts) {
		return
	}
	n := t.volatile[level].Get(index)
	if n == nil {
		return
	}
	t.refresh(level, index)
	t.dev.WriteLine(t.NodeNVMAddr(level, index), n.Encode())
	if t.dirty[level].Get(index) {
		t.dirty[level].Set(index, false)
		t.dirtyCount--
	}
}

// PersistAll writes every live node to NVM (clean shutdown), level by
// level in ascending index order.
func (t *Tree) PersistAll() {
	for l := 1; l < len(t.counts); l++ {
		t.volatile[l].Range(func(idx uint64, n **Node) bool {
			if *n != nil {
				t.PersistNode(l, idx)
			}
			return true
		})
	}
}

// DirtyNodes lists nodes newer than their NVM copies (shadow tracker).
func (t *Tree) DirtyNodes() [][2]uint64 {
	out := make([][2]uint64, 0, t.dirtyCount)
	for l := 1; l < len(t.counts); l++ {
		t.dirty[l].Range(func(idx uint64, d *bool) bool {
			if *d {
				out = append(out, [2]uint64{uint64(l), idx})
			}
			return true
		})
	}
	return out
}

// NodeImage returns the live image of node (level, index).
func (t *Tree) NodeImage(level int, index uint64) [NodeSize]byte {
	n := t.node(level, index)
	t.refresh(level, index)
	return n.Encode()
}

// RestoreNode installs a node image (shadow replay during recovery). The
// image carries its own MAC, so the node is no longer stale. Its stale
// children are refreshed first, and on level 1 its stale leaf MACs are
// written back first: their MACs bind the versions the restore
// replaces.
func (t *Tree) RestoreNode(level int, index uint64, img [NodeSize]byte) {
	if level > 1 {
		for c := index * Arity; c < (index+1)*Arity && c < t.counts[level-1]; c++ {
			t.refresh(level-1, c)
		}
	} else if n := t.volatile[1].Get(index); n != nil {
		t.writeLeaves(n, index, 0xFF)
	}
	slot := t.volatile[level].Ptr(index)
	if *slot == nil {
		*slot = new(Node)
	}
	**slot = DecodeNode(img)
	t.markDirty(level, index)
}

// DropVolatile models power failure. Stale leaf MACs are written back
// first: eager hashing put them in NVM on every write.
func (t *Tree) DropVolatile() {
	t.writeAllLeaves()
	for l := 1; l < len(t.counts); l++ {
		t.volatile[l].Reset()
		t.dirty[l].Reset()
	}
	t.dirtyCount = 0
}
