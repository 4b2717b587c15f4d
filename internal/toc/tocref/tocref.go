// Package tocref is an eager reference model of the Tree of Counters for
// differential tests: every leaf update bumps the path versions and
// recomputes every path MAC at once, with no deferred state at all. A
// staged update (Prepare, Install) holds whole copies of the path nodes,
// so installing it replaces those nodes outright. It
// shares toc's geometry, node encoding, MAC domain separation and NVM
// placement, so a toc.Tree and a tocref.Tree driven with the same
// operations must agree on every root version, node image, dirty set and
// persisted byte.
//
// It exists only for tests; nothing in the simulator imports it.
package tocref

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dolos/internal/crypt"
	"dolos/internal/nvm"
	"dolos/internal/toc"
)

type key struct {
	level int
	index uint64
}

// Tree is the eager reference tree.
type Tree struct {
	eng      crypt.Provider
	dev      *nvm.Device
	nodeBase uint64
	counts   []uint64
	offsets  []uint64

	nodes   map[key]*toc.Node
	dirty   map[key]bool
	rootVer uint64
}

// New builds a reference tree with toc.New's geometry.
func New(eng crypt.Provider, dev *nvm.Device, nodeBase, leaves uint64) *Tree {
	t := &Tree{eng: eng, dev: dev, nodeBase: nodeBase,
		nodes: map[key]*toc.Node{}, dirty: map[key]bool{}}
	t.counts = []uint64{leaves}
	for n := leaves; n > 1; {
		n = (n + toc.Arity - 1) / toc.Arity
		t.counts = append(t.counts, n)
	}
	t.offsets = make([]uint64, len(t.counts))
	var off uint64
	for l := 1; l < len(t.counts); l++ {
		t.offsets[l] = off
		off += t.counts[l] * toc.NodeSize
	}
	return t
}

// Levels returns the number of interior levels.
func (t *Tree) Levels() int { return len(t.counts) - 1 }

// NodeNVMAddr returns the NVM home of node (level, index).
func (t *Tree) NodeNVMAddr(level int, index uint64) uint64 {
	return t.nodeBase + t.offsets[level] + index*toc.NodeSize
}

// RootVersion returns the root version register.
func (t *Tree) RootVersion() uint64 { return t.rootVer }

func (t *Tree) node(level int, index uint64) *toc.Node {
	k := key{level, index}
	n := t.nodes[k]
	if n == nil {
		d := toc.DecodeNode(t.dev.ReadLine(t.NodeNVMAddr(level, index)))
		n = &d
		t.nodes[k] = n
	}
	return n
}

func (t *Tree) parentVersion(level int, index uint64) uint64 {
	if level == len(t.counts)-1 {
		return t.rootVer
	}
	return t.node(level+1, index/toc.Arity).Versions[index%toc.Arity]
}

func (t *Tree) nodeMAC(level int, index uint64) crypt.MAC {
	return t.macOver(level, index, t.node(level, index), t.parentVersion(level, index))
}

// macOver computes the MAC of node n at (level, index) under parentVer.
func (t *Tree) macOver(level int, index uint64, n *toc.Node, parentVer uint64) crypt.MAC {
	var buf [toc.Arity*8 + 8]byte
	for i, v := range n.Versions {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	binary.LittleEndian.PutUint64(buf[toc.Arity*8:], parentVer)
	return t.eng.NodeMAC(buf[:], uint64(level)<<56|index)
}

func (t *Tree) leafMAC(index uint64, image *[64]byte) crypt.MAC {
	return t.leafMACAt(index, image, t.node(1, index/toc.Arity).Versions[index%toc.Arity])
}

func (t *Tree) leafMACAt(index uint64, image *[64]byte, version uint64) crypt.MAC {
	var buf [72]byte
	copy(buf[:64], image[:])
	binary.LittleEndian.PutUint64(buf[64:], version)
	return t.eng.NodeMAC(buf[:], index)
}

// Staged is a prepared leaf update: whole copies of the path nodes with
// their new versions and MACs, the leaf MAC and the new root version.
type Staged struct {
	Leaf    uint64
	LeafMAC crypt.MAC
	Nodes   []toc.Node // Nodes[l-1] is the path's level-l node
	RootVer uint64
}

// Prepare computes, without installing, what writing image to leaf
// `index` makes.
func (t *Tree) Prepare(index uint64, image *[64]byte) Staged {
	s := Staged{Leaf: index, RootVer: t.rootVer + 1}
	child := index
	for level := 1; level < len(t.counts); level++ {
		n := *t.node(level, child/toc.Arity)
		n.Versions[child%toc.Arity] = (n.Versions[child%toc.Arity] + 1) & (1<<56 - 1)
		s.Nodes = append(s.Nodes, n)
		child /= toc.Arity
	}
	child = index
	for level := 1; level < len(t.counts); level++ {
		child /= toc.Arity
		parentVer := s.RootVer
		if level < len(t.counts)-1 {
			parentVer = s.Nodes[level].Versions[child%toc.Arity]
		}
		s.Nodes[level-1].MAC = t.macOver(level, child, &s.Nodes[level-1], parentVer)
	}
	s.LeafMAC = t.leafMACAt(index, image, s.Nodes[0].Versions[index%toc.Arity])
	return s
}

// Install replaces every path node with its staged copy and sets the
// root version. Installing twice leaves the same state as once.
func (t *Tree) Install(s Staged) {
	child := s.Leaf
	for level := 1; level < len(t.counts); level++ {
		child /= toc.Arity
		n := s.Nodes[level-1]
		t.nodes[key{level, child}] = &n
		t.dirty[key{level, child}] = true
	}
	t.rootVer = s.RootVer
}

// UpdateLeaf writes image to leaf `index`: every path version and the
// root version advance, every path MAC is recomputed, and the leaf MAC
// is returned.
func (t *Tree) UpdateLeaf(index uint64, image *[64]byte) crypt.MAC {
	s := t.Prepare(index, image)
	t.Install(s)
	return s.LeafMAC
}

// Verify checks a leaf image and its stored MAC along the version chain,
// stopping at the first dirty node when trustCached.
func (t *Tree) Verify(index uint64, image *[64]byte, stored crypt.MAC, trustCached bool) error {
	if t.leafMAC(index, image) != stored {
		return fmt.Errorf("tocref: leaf %d MAC mismatch", index)
	}
	if trustCached && t.dirty[key{1, index / toc.Arity}] {
		return nil
	}
	child := index
	for level := 1; level < len(t.counts); level++ {
		idx := child / toc.Arity
		if t.node(level, idx).MAC != t.nodeMAC(level, idx) {
			return fmt.Errorf("tocref: node MAC mismatch at level %d index %d", level, idx)
		}
		if trustCached && level+1 < len(t.counts) && t.dirty[key{level + 1, idx / toc.Arity}] {
			return nil
		}
		child = idx
	}
	return nil
}

// NodeImage returns the live image of a node.
func (t *Tree) NodeImage(level int, index uint64) [toc.NodeSize]byte {
	return t.node(level, index).Encode()
}

// DirtyNodes lists the dirty nodes by ascending level, then index.
func (t *Tree) DirtyNodes() [][2]uint64 {
	out := make([][2]uint64, 0, len(t.dirty))
	for k := range t.dirty {
		out = append(out, [2]uint64{uint64(k.level), k.index})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// PersistNode writes a live node to NVM and cleans it.
func (t *Tree) PersistNode(level int, index uint64) {
	k := key{level, index}
	if n := t.nodes[k]; n != nil {
		t.dev.WriteLine(t.NodeNVMAddr(level, index), n.Encode())
		delete(t.dirty, k)
	}
}

// PersistAll persists every live node.
func (t *Tree) PersistAll() {
	for k := range t.nodes {
		t.PersistNode(k.level, k.index)
	}
}

// RestoreNode installs a node image and marks it dirty.
func (t *Tree) RestoreNode(level int, index uint64, img [toc.NodeSize]byte) {
	n := toc.DecodeNode(img)
	t.nodes[key{level, index}] = &n
	t.dirty[key{level, index}] = true
}

// DropVolatile loses every live node; NVM and the root version survive.
func (t *Tree) DropVolatile() {
	t.nodes = map[key]*toc.Node{}
	t.dirty = map[key]bool{}
}
