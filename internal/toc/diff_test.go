package toc_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dolos/internal/nvm"
	"dolos/internal/toc"
	"dolos/internal/toc/tocref"
)

// diffPair drives an observe-time tree and the eager reference with the
// same operations, each on its own device.
type diffPair struct {
	t      *testing.T
	rng    *rand.Rand
	tree   *toc.Tree
	ref    *tocref.Tree
	dev    *nvm.Device
	refDev *nvm.Device
	leaves uint64
	hot    []uint64            // leaves most writes go to, so paths share ancestors
	images map[uint64][64]byte // the leaf source: current image of every written leaf
	// live holds the leaves written since the last crash: their source
	// is the trusted on-chip counter block, which nothing tampers with.
	live map[uint64]bool
	last uint64 // the last leaf written
	// tamper, when non-nil, replaces leaf tamperLeaf's source image.
	tamper     *[64]byte
	tamperLeaf uint64
	step       int
}

const diffNodeBase = 1 << 24

func newDiffPair(t *testing.T, seed int64, leaves uint64) *diffPair {
	p := &diffPair{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		dev:    nvm.NewDevice(nil, 1<<30, 0),
		refDev: nvm.NewDevice(nil, 1<<30, 0),
		leaves: leaves,
		images: map[uint64][64]byte{},
		live:   map[uint64]bool{},
	}
	p.tree = toc.New(testEngine(), p.dev, diffNodeBase, leaves, p.source)
	p.ref = tocref.New(testEngine(), p.refDev, diffNodeBase, leaves)
	for i := 0; i < 24; i++ {
		p.hot = append(p.hot, uint64(p.rng.Int63n(int64(leaves))))
	}
	return p
}

// source is the tree's leaf source.
func (p *diffPair) source(leaf uint64) [64]byte {
	if p.tamper != nil && leaf == p.tamperLeaf {
		return *p.tamper
	}
	return p.images[leaf]
}

func (p *diffPair) fatalf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("step %d: "+format, append([]any{p.step}, args...)...)
}

// writtenLeaves returns the written leaves in ascending order.
func (p *diffPair) writtenLeaves() []uint64 {
	out := make([]uint64, 0, len(p.images))
	for l := range p.images {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// randNode picks an ancestor of a written leaf (or any node when nothing
// is written yet); half the time one of the last written leaf, whose
// MAC is likely still stale.
func (p *diffPair) randNode() (int, uint64) {
	level := 1 + p.rng.Intn(p.tree.Levels())
	var leaf uint64
	if ls := p.writtenLeaves(); len(ls) > 0 {
		leaf = ls[p.rng.Intn(len(ls))]
		if p.rng.Intn(2) == 0 {
			leaf = p.last
		}
	}
	return level, leaf >> (3 * uint(level))
}

// checkNVM compares every byte of both devices, page allocation
// included. The snapshot observes the leaf-MAC region, so the tree
// writes every stale leaf MAC back first; interior nodes are in NVM
// only where PersistNode wrote them.
func (p *diffPair) checkNVM() {
	p.t.Helper()
	got, want := p.dev.Snapshot(), p.refDev.Snapshot()
	if len(got) != len(want) {
		p.fatalf("%d NVM pages allocated, reference %d", len(got), len(want))
	}
	for id, pg := range want {
		if g, ok := got[id]; !ok || !bytes.Equal(g[:], pg[:]) {
			p.fatalf("NVM page %d differs from the eager reference", id)
		}
	}
}

// observe compares every observable value: root version, dirty set and
// the images of the dirty nodes.
func (p *diffPair) observe() {
	p.t.Helper()
	if got, want := p.tree.RootVersion(), p.ref.RootVersion(); got != want {
		p.fatalf("root version %d, reference %d", got, want)
	}
	dirty := p.tree.DirtyNodes()
	if want := p.ref.DirtyNodes(); !reflect.DeepEqual(dirty, want) && len(dirty)+len(want) > 0 {
		p.fatalf("dirty set %v, reference %v", dirty, want)
	}
	for _, d := range dirty {
		if got, want := p.tree.NodeImage(int(d[0]), d[1]), p.ref.NodeImage(int(d[0]), d[1]); got != want {
			p.fatalf("node (%d,%d) image differs", d[0], d[1])
		}
	}
}

// randLeaf picks a leaf, most often a hot one.
func (p *diffPair) randLeaf() uint64 {
	if p.rng.Intn(4) > 0 {
		return p.hot[p.rng.Intn(len(p.hot))]
	}
	return uint64(p.rng.Int63n(int64(p.leaves)))
}

// write stages and applies one leaf update; now and then it applies the
// staged update a second time, as a redo replay does.
func (p *diffPair) write() {
	leaf := p.randLeaf()
	var img [64]byte
	p.rng.Read(img[:])
	var u toc.Update
	p.tree.Stage(&u, leaf)
	p.setLeaf(leaf, img)
	p.tree.Apply(&u)
	if p.rng.Intn(10) == 0 {
		p.tree.Apply(&u)
	}
	p.ref.UpdateLeaf(leaf, &img)
}

// setLeaf gives the leaf source a new image of leaf.
func (p *diffPair) setLeaf(leaf uint64, img [64]byte) {
	p.images[leaf] = img
	p.live[leaf] = true
	p.last = leaf
}

// crashReplay stages one leaf update in both trees, crashes with shadow
// restore, then applies the staged update, as an Anubis redo replay
// does. The restore may tamper with a slot off the path in a path node:
// the replay installs the staged arrays, so both trees overwrite it.
func (p *diffPair) crashReplay() {
	leaf := p.randLeaf()
	var img [64]byte
	p.rng.Read(img[:])
	var u toc.Update
	p.tree.Stage(&u, leaf)
	s := p.ref.Prepare(leaf, &img)
	p.crashRestore(&leaf)
	p.setLeaf(leaf, img)
	p.tree.Apply(&u)
	p.ref.Install(s)
}

// verify runs the same check on both trees and compares the outcome. A
// leaf not written since the last crash is read from NVM, so now and
// then its image is tampered with; and now and then an adversary
// overwrites a leaf MAC in NVM, in both devices.
func (p *diffPair) verify(full bool) {
	ls := p.writtenLeaves()
	if len(ls) == 0 {
		return
	}
	leaf := ls[p.rng.Intn(len(ls))]
	img := p.images[leaf]
	switch r := p.rng.Intn(8); {
	case r == 0 && !p.live[leaf]:
		img[p.rng.Intn(64)] ^= 0x40
		p.tamper, p.tamperLeaf = &img, leaf
	case r == 1:
		var junk [8]byte
		p.rng.Read(junk[:])
		p.dev.Write(p.tree.LeafMACAddr(leaf), junk[:])
		p.refDev.Write(p.ref.LeafMACAddr(leaf), junk[:])
	}
	var err error
	if full {
		err = p.tree.VerifyLeafFull(leaf)
	} else {
		err = p.tree.VerifyLeaf(leaf)
	}
	p.tamper = nil
	rerr := p.ref.Verify(leaf, &img, !full)
	if (err == nil) != (rerr == nil) {
		p.fatalf("verify(full=%v) leaf %d: err=%v, reference err=%v", full, leaf, err, rerr)
	}
}

// crashRestore captures the dirty images (the shadow region), drops the
// overlay and restores them, as Anubis recovery does. Now and then one
// restored image is tampered with, which both trees must treat alike.
// With a staged leaf, the tampering may hit a version slot off that
// leaf's path in one of its path nodes.
func (p *diffPair) crashRestore(staged *uint64) {
	type saved struct {
		level int
		index uint64
		img   [toc.NodeSize]byte
	}
	var shadow []saved
	for _, d := range p.tree.DirtyNodes() {
		shadow = append(shadow, saved{int(d[0]), d[1], p.tree.NodeImage(int(d[0]), d[1])})
	}
	p.tree.DropVolatile()
	p.ref.DropVolatile()
	p.live = map[uint64]bool{}
	// Anubis restores the whole shadow; a subset exercises the
	// NVM-loaded path as well.
	keep := len(shadow)
	if p.rng.Intn(3) == 0 {
		keep = p.rng.Intn(len(shadow) + 1)
	}
	switch {
	case staged != nil && p.rng.Intn(2) == 0:
		for i := range shadow[:keep] {
			s := &shadow[i]
			child := *staged >> (3 * uint(s.level-1))
			if child/toc.Arity != s.index {
				continue
			}
			slot := (child + 1 + uint64(p.rng.Intn(toc.Arity-1))) % toc.Arity
			s.img[slot*7+uint64(p.rng.Intn(7))] ^= 0x10
			break
		}
	case keep > 0 && p.rng.Intn(4) == 0:
		shadow[p.rng.Intn(keep)].img[p.rng.Intn(toc.NodeSize)] ^= 0x10
	}
	for _, s := range shadow[:keep] {
		p.tree.RestoreNode(s.level, s.index, s.img)
		p.ref.RestoreNode(s.level, s.index, s.img)
	}
}

// observeNode compares the image of one node on a written path.
func (p *diffPair) observeNode() {
	p.t.Helper()
	l, i := p.randNode()
	if p.tree.NodeImage(l, i) != p.ref.NodeImage(l, i) {
		p.fatalf("node (%d,%d) image differs", l, i)
	}
}

// restoreLive installs an arbitrary image into a live node without a
// crash: its stale children keep MACs over the replaced versions.
func (p *diffPair) restoreLive() {
	l, i := p.randNode()
	var img [toc.NodeSize]byte
	p.rng.Read(img[:])
	p.tree.RestoreNode(l, i, img)
	p.ref.RestoreNode(l, i, img)
}

// TestDifferentialAgainstEagerReference runs seeded random sequences of
// writes (some applied twice), trusted and full verifies (some of
// tampered leaves), persists, crashes with shadow restore (some with a
// staged write replayed after it) and live restores against the eager
// reference tree. Each step is a burst of writes and one operation, so
// the operation meets stale leaf MACs; every NVM byte, the leaf-MAC
// region included, is compared after every step. The refreshing
// observations (dirty images, single nodes) come only now and then, so
// stale nodes pile up between them.
func TestDifferentialAgainstEagerReference(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		leaves uint64
	}{
		{1, 64}, {2, 4096}, {3, 5000}, {4, 1 << 15}, {5, 7},
	} {
		p := newDiffPair(t, c.seed, c.leaves)
		for p.step = 0; p.step < 1500; p.step++ {
			for n := p.rng.Intn(4); n > 0; n-- {
				p.write()
			}
			switch r := p.rng.Intn(100); {
			case r < 40:
				p.write()
			case r < 72:
				p.verify(false)
			case r < 76:
				p.verify(true)
			case r < 86:
				l, i := p.randNode()
				p.tree.PersistNode(l, i)
				p.ref.PersistNode(l, i)
			case r < 88:
				p.tree.PersistAll()
				p.ref.PersistAll()
			case r < 90:
				p.crashRestore(nil)
			case r < 92:
				p.crashReplay()
			case r < 93:
				p.restoreLive()
			case r < 97:
				p.observeNode()
			default:
				p.observe()
			}
			p.checkNVM()
		}
		p.observe()
		if p.tree.MACOps() == 0 {
			t.Fatal("no MACs computed")
		}
	}
}

// Hashing happens where values are observed: a burst of writes computes
// no MAC, and persisting the tree then hashes each distinct path node
// once, however many writes shared it; the leaf MACs wait for an
// access to their NVM region.
func TestWritesDeferNodeMACs(t *testing.T) {
	tr := newTestTree(4096) // 4 interior levels
	img := leafImg(1)
	for i := uint64(0); i < 16; i++ {
		update(tr, i, &img)
		update(tr, i, &img)
	}
	if got := tr.MACOps(); got != 0 {
		t.Fatalf("32 writes computed %d MACs, want none", got)
	}
	tr.PersistAll()
	// Leaves 0..15 have 2 level-1 parents and 1 ancestor on each level
	// above: 2+1+1+1 node MACs.
	if got := tr.MACOps(); got != 5 {
		t.Fatalf("PersistAll computed %d MACs, want %d", got, 5)
	}
	tr.dev.AllocatedPages()
	if got := tr.MACOps(); got != 5+16 {
		t.Fatalf("observing the device brought the total to %d MACs, want %d", got, 5+16)
	}
}
