package bmt

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dolos/internal/bmt/bmtref"
	"dolos/internal/crypt"
	"dolos/internal/nvm"
)

// diffPair drives an observe-time tree and the eager reference with the
// same operations, each on its own device.
type diffPair struct {
	t      *testing.T
	rng    *rand.Rand
	tree   *Tree
	ref    *bmtref.Tree
	dev    *nvm.Device
	refDev *nvm.Device
	leaves uint64
	// through is the write-through depth of every write (Triad-NVM's
	// persisted levels); the reference persists those levels at once.
	through int
	hot     []uint64            // leaves most writes go to, so paths share ancestors
	images  map[uint64][64]byte // the leaf source: current image of every written leaf
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

func newDiffPair(t *testing.T, seed int64, leaves uint64, through int) *diffPair {
	var aesKey, macKey [16]byte
	copy(macKey[:], "bmt-test-mac-key")
	eng := crypt.NewEngine(aesKey, macKey)
	p := &diffPair{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		dev:     nvm.NewDevice(nil, 1<<30, 0),
		refDev:  nvm.NewDevice(nil, 1<<30, 0),
		leaves:  leaves,
		through: through,
		images:  map[uint64][64]byte{},
		live:    map[uint64]bool{},
	}
	p.tree = New(eng, p.dev, diffNodeBase, leaves, p.source)
	p.ref = bmtref.New(eng, p.refDev, diffNodeBase, leaves)
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
// leaf slot is likely still stale.
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
// included. The BMT keeps nothing of its own in NVM, so this refreshes
// nothing: the device holds only what PersistNode wrote.
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

// observe compares every observable value: root register, dirty set and
// the images of the dirty nodes.
func (p *diffPair) observe() {
	p.t.Helper()
	if got, want := p.tree.Root(), p.ref.Root(); got != want {
		p.fatalf("root %x, reference %x", got, want)
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

func (p *diffPair) write() {
	var leaf uint64
	if p.rng.Intn(4) > 0 {
		leaf = p.hot[p.rng.Intn(len(p.hot))]
	} else {
		leaf = uint64(p.rng.Int63n(int64(p.leaves)))
	}
	var img [64]byte
	p.rng.Read(img[:])
	p.setLeaf(leaf, img)
	if got, want := p.tree.UpdateLeaf(leaf, p.through), p.tree.Levels()+1; got != want {
		p.fatalf("UpdateLeaf modeled %d MACs, want %d", got, want)
	}
	p.refWrite(leaf, &img)
}

// refWrite updates the reference and persists its write-through levels.
func (p *diffPair) refWrite(leaf uint64, img *[64]byte) {
	p.ref.UpdateLeaf(leaf, img)
	for level, idx := 1, leaf/Arity; level <= p.through && level <= p.ref.Levels(); level, idx = level+1, idx/Arity {
		p.ref.PersistNode(level, idx)
	}
}

// setLeaf gives the leaf source a new image of leaf.
func (p *diffPair) setLeaf(leaf uint64, img [64]byte) {
	p.images[leaf] = img
	p.live[leaf] = true
	p.last = leaf
}

// verify runs the same check on both trees and compares outcome and
// modeled MAC count. A leaf not written since the last crash is read
// from NVM, so now and then its image is tampered with.
func (p *diffPair) verify(full bool) {
	ls := p.writtenLeaves()
	if len(ls) == 0 {
		return
	}
	leaf := ls[p.rng.Intn(len(ls))]
	img := p.images[leaf]
	if !p.live[leaf] && p.rng.Intn(3) == 0 {
		img[p.rng.Intn(64)] ^= 0x40
		p.tamper, p.tamperLeaf = &img, leaf
	}
	var n int
	var err error
	if full {
		n, err = p.tree.VerifyLeafFull(leaf)
	} else {
		n, err = p.tree.VerifyLeaf(leaf)
	}
	p.tamper = nil
	rn, rerr := p.ref.Verify(leaf, &img, !full)
	if n != rn || (err == nil) != (rerr == nil) {
		p.fatalf("verify(full=%v) leaf %d: %d MACs err=%v, reference %d MACs err=%v", full, leaf, n, err, rn, rerr)
	}
}

// crashRestore captures the dirty images (the shadow region), drops the
// overlay and restores them, as Anubis recovery does.
func (p *diffPair) crashRestore() {
	type saved struct {
		level int
		index uint64
		img   [NodeSize]byte
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
	for _, s := range shadow[:keep] {
		p.tree.RestoreNode(s.level, s.index, s.img)
		p.ref.RestoreNode(s.level, s.index, s.img)
	}
}

// crashReplay crashes with a staged write, as the Ma-SU's redo log
// holds one: the crash computes the temp root from the staged image,
// the shadow is restored, and the replay updates the leaf and installs
// the temp root in the root register.
func (p *diffPair) crashReplay() {
	leaf := p.hot[p.rng.Intn(len(p.hot))]
	var img [64]byte
	p.rng.Read(img[:])
	temp, refTemp := p.tree.RootAfter(leaf, &img), p.ref.RootAfter(leaf, &img)
	if temp != refTemp {
		p.fatalf("temp root %x, reference %x", temp, refTemp)
	}
	p.crashRestore()
	p.setLeaf(leaf, img)
	p.tree.UpdateLeaf(leaf, p.through)
	p.tree.SetRoot(temp)
	p.refWrite(leaf, &img)
	p.ref.SetRoot(refTemp)
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
// crash: the parent slot and the root keep the replaced image's MAC.
func (p *diffPair) restoreLive() {
	l, i := p.randNode()
	var img [NodeSize]byte
	p.rng.Read(img[:])
	p.tree.RestoreNode(l, i, img)
	p.ref.RestoreNode(l, i, img)
}

// rebuild is the Osiris/reconstruct path: drop the overlay (or, now and
// then, rebuild over the live tree from a tampered leaf set), rebuild
// from the written leaves, compare roots, then reinstall the leaves.
func (p *diffPair) rebuild() {
	images := p.images
	if p.rng.Intn(2) == 0 {
		p.tree.DropVolatile()
		p.ref.DropVolatile()
		p.live = map[uint64]bool{}
	} else if ls := p.writtenLeaves(); len(ls) > 0 {
		images = map[uint64][64]byte{}
		for l, img := range p.images {
			images[l] = img
		}
		img := images[ls[0]]
		img[0] ^= 1
		images[ls[0]] = img
	}
	got, want := p.tree.RebuildFromLeaves(images), p.ref.RebuildFromLeaves(images)
	if got != want {
		p.fatalf("rebuilt root %x, reference %x", got, want)
	}
	if got, want := p.tree.Root(), p.ref.Root(); got != want {
		p.fatalf("root register after rebuild %x, reference %x", got, want)
	}
	for _, l := range p.writtenLeaves() {
		img := p.images[l]
		p.setLeaf(l, img)
		p.tree.UpdateLeaf(l, 0)
		p.ref.UpdateLeaf(l, &img)
	}
}

// TestDifferentialAgainstEagerReference runs seeded random sequences of
// writes (some cases writing the first levels through, as Triad-NVM
// does), verifies, persists, crashes with shadow restore (some with a
// staged write replayed after it) and rebuilds against the eager
// reference tree. Each step is a burst of writes and one operation, so
// the operation meets nodes that owe NVM their images; every NVM byte
// is compared after every step. The refreshing observations (root,
// dirty images) come only now and then, so stale leaves and deferred
// MACs pile up between them.
func TestDifferentialAgainstEagerReference(t *testing.T) {
	for _, c := range []struct {
		seed    int64
		leaves  uint64
		through int
	}{
		{1, 64, 0}, {2, 4096, 0}, {3, 5000, 0}, {4, 1 << 15, 0}, {5, 7, 0},
		{6, 4096, 1}, {7, 5000, 2}, {8, 64, 2},
	} {
		p := newDiffPair(t, c.seed, c.leaves, c.through)
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
				p.crashRestore()
			case r < 92:
				p.crashReplay()
			case r < 93:
				p.rebuild()
			case r < 94:
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
// no MAC at all, and one root read then hashes each written leaf and
// each distinct ancestor once, however many writes shared it.
func TestWritesDeferInteriorMACs(t *testing.T) {
	tree, _ := newTestTree(4096) // 4 interior levels
	img := leafImg(1)
	for i := uint64(0); i < 16; i++ {
		tree.write(i, &img)
		tree.write(i, &img)
	}
	if got := tree.MACOps(); got != 0 {
		t.Fatalf("32 writes computed %d MACs, want none", got)
	}
	tree.Root()
	// Leaves 0..15 have 2 level-1 parents, 1 ancestor on each level
	// above: 16 leaf MACs, then 2+1+1 node MACs refresh level 2..4
	// slots, plus the root.
	if got := tree.MACOps(); got != 16+5 {
		t.Fatalf("root read computed %d MACs, want %d", got, 16+5)
	}
}

// RootAfter is the temp root of a staged write: the root UpdateLeaf
// would produce, computed without changing the tree.
func TestRootAfterDoesNotMutate(t *testing.T) {
	tree, _ := newTestTree(512)
	img := leafImg(1)
	tree.write(5, &img)
	rootBefore := tree.Root()
	img2 := leafImg(2)
	next := tree.RootAfter(5, &img2)
	if tree.Root() != rootBefore {
		t.Fatal("RootAfter moved the root")
	}
	if _, err := tree.VerifyLeafFull(5); err != nil {
		t.Fatalf("RootAfter disturbed the live path: %v", err)
	}
	tree.write(5, &img2)
	if tree.Root() != next {
		t.Fatal("RootAfter differs from the root UpdateLeaf produces")
	}
}
