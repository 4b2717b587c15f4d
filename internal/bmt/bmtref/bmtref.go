// Package bmtref is an eager reference model of the Bonsai Merkle Tree
// for differential tests: every leaf update rehashes the whole path to
// the root, with no deferred state at all. It shares bmt's geometry,
// MAC domain separation, NVM placement and zero-slot convention, so a
// bmt.Tree and a bmtref.Tree driven with the same operations must agree
// on every root, node image, dirty set and persisted byte.
//
// It exists only for tests; nothing in the simulator imports it.
package bmtref

import (
	"fmt"
	"sort"

	"dolos/internal/crypt"
	"dolos/internal/nvm"
)

const (
	arity    = 8
	nodeSize = arity * crypt.MACSize
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
	leaves   uint64
	counts   []uint64
	offsets  []uint64

	images  map[key]*[nodeSize]byte
	dirty   map[key]bool
	root    crypt.MAC
	rootSet bool
}

// New builds a reference tree with bmt.New's geometry.
func New(eng crypt.Provider, dev *nvm.Device, nodeBase, leaves uint64) *Tree {
	t := &Tree{eng: eng, dev: dev, nodeBase: nodeBase, leaves: leaves,
		images: map[key]*[nodeSize]byte{}, dirty: map[key]bool{}}
	t.counts = []uint64{leaves}
	for n := leaves; n > 1; {
		n = (n + arity - 1) / arity
		t.counts = append(t.counts, n)
	}
	t.offsets = make([]uint64, len(t.counts))
	var off uint64
	for l := 1; l < len(t.counts); l++ {
		t.offsets[l] = off
		off += t.counts[l] * nodeSize
	}
	return t
}

// Levels returns the number of interior levels.
func (t *Tree) Levels() int { return len(t.counts) - 1 }

// NodeNVMAddr returns the NVM home of node (level, index).
func (t *Tree) NodeNVMAddr(level int, index uint64) uint64 {
	return t.nodeBase + t.offsets[level] + index*nodeSize
}

// RegionBytes returns the size of the interior-node region.
func (t *Tree) RegionBytes() uint64 {
	return t.offsets[len(t.counts)-1] + nodeSize
}

func (t *Tree) node(level int, index uint64) *[nodeSize]byte {
	k := key{level, index}
	img := t.images[k]
	if img == nil {
		line := t.dev.ReadLine(t.NodeNVMAddr(level, index))
		img = &line
		t.images[k] = img
	}
	return img
}

func (t *Tree) mac(level int, index uint64, b []byte) crypt.MAC {
	return t.eng.NodeMAC(b, uint64(level)<<56|index)
}

// UpdateLeaf installs a leaf image, rehashing every level and the root.
func (t *Tree) UpdateLeaf(index uint64, image *[64]byte) {
	m := t.mac(0, index, image[:])
	child := index
	for level := 1; level < len(t.counts); level++ {
		idx := child / arity
		img := t.node(level, idx)
		copy(img[child%arity*crypt.MACSize:], m[:])
		t.dirty[key{level, idx}] = true
		m = t.mac(level, idx, img[:])
		child = idx
	}
	t.root, t.rootSet = m, true
}

// RootAfter returns the root UpdateLeaf(index, image) would produce,
// without changing the tree.
func (t *Tree) RootAfter(index uint64, image *[64]byte) crypt.MAC {
	m := t.mac(0, index, image[:])
	child := index
	for level := 1; level < len(t.counts); level++ {
		idx := child / arity
		img := *t.node(level, idx)
		copy(img[child%arity*crypt.MACSize:], m[:])
		m = t.mac(level, idx, img[:])
		child = idx
	}
	return m
}

// Root returns the root register.
func (t *Tree) Root() crypt.MAC { return t.root }

// SetRoot forces the root register.
func (t *Tree) SetRoot(m crypt.MAC) { t.root, t.rootSet = m, true }

// NodeImage returns the live image of a node.
func (t *Tree) NodeImage(level int, index uint64) [nodeSize]byte {
	return *t.node(level, index)
}

// DirtyNodes lists the dirty nodes by ascending level, then index.
func (t *Tree) DirtyNodes() [][2]uint64 {
	out := make([][2]uint64, 0, len(t.dirty))
	for k, d := range t.dirty {
		if d {
			out = append(out, [2]uint64{uint64(k.level), k.index})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// PersistNode writes a live node image to NVM and cleans it.
func (t *Tree) PersistNode(level int, index uint64) {
	k := key{level, index}
	if img := t.images[k]; img != nil {
		t.dev.WriteLine(t.NodeNVMAddr(level, index), *img)
		delete(t.dirty, k)
	}
}

// PersistAll persists every live node.
func (t *Tree) PersistAll() {
	for k := range t.images {
		t.PersistNode(k.level, k.index)
	}
}

// RestoreNode installs a node image and marks it dirty.
func (t *Tree) RestoreNode(level int, index uint64, img [nodeSize]byte) {
	t.images[key{level, index}] = &img
	t.dirty[key{level, index}] = true
}

// DropVolatile loses every live image; NVM and the root survive.
func (t *Tree) DropVolatile() {
	t.images = map[key]*[nodeSize]byte{}
	t.dirty = map[key]bool{}
}

// RebuildFromLeaves recomputes the paths of the given leaves bottom-up
// into the live images and returns the resulting root, leaving the
// root register alone.
func (t *Tree) RebuildFromLeaves(leafImages map[uint64][64]byte) crypt.MAC {
	touched := map[uint64]bool{}
	for idx, img := range leafImages {
		m := t.mac(0, idx, img[:])
		copy(t.node(1, idx/arity)[idx%arity*crypt.MACSize:], m[:])
		touched[idx/arity] = true
	}
	for level := 1; level < len(t.counts)-1; level++ {
		next := map[uint64]bool{}
		for idx := range touched {
			m := t.mac(level, idx, t.node(level, idx)[:])
			copy(t.node(level+1, idx/arity)[idx%arity*crypt.MACSize:], m[:])
			next[idx/arity] = true
		}
		touched = next
	}
	top := len(t.counts) - 1
	return t.mac(top, 0, t.node(top, 0)[:])
}

// Verify checks a leaf image along its path, stopping at the first dirty
// node when trustCached, and returns the MAC count and any mismatch.
func (t *Tree) Verify(index uint64, image *[64]byte, trustCached bool) (int, error) {
	m := t.mac(0, index, image[:])
	macs := 1
	child := index
	for level := 1; level < len(t.counts); level++ {
		idx := child / arity
		img := t.node(level, idx)
		var stored crypt.MAC
		copy(stored[:], img[child%arity*crypt.MACSize:])
		if stored != m {
			if level == 1 && stored == (crypt.MAC{}) && *image == ([64]byte{}) {
				return macs, nil
			}
			return macs, fmt.Errorf("bmtref: mismatch at level %d index %d", level-1, child)
		}
		if trustCached && t.dirty[key{level, idx}] {
			return macs, nil
		}
		m = t.mac(level, idx, img[:])
		macs++
		child = idx
	}
	if t.rootSet && m != t.root {
		return macs, fmt.Errorf("bmtref: root mismatch")
	}
	return macs, nil
}
