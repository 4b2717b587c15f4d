package bmt

import (
	"testing"
	"testing/quick"

	"dolos/internal/crypt"
	"dolos/internal/nvm"
)

// testTree is a tree with its leaf source: a map of leaf images that
// write keeps in step with UpdateLeaf, as the counter store does.
type testTree struct {
	*Tree
	images map[uint64][64]byte
}

func newTestTree(leaves uint64) (*testTree, *nvm.Device) {
	var aesKey, macKey [16]byte
	copy(macKey[:], "bmt-test-mac-key")
	eng := crypt.NewEngine(aesKey, macKey)
	dev := nvm.NewDevice(nil, 1<<30, 0)
	tt := &testTree{images: map[uint64][64]byte{}}
	tt.Tree = New(eng, dev, 1<<24, leaves, func(i uint64) [64]byte { return tt.images[i] })
	return tt, dev
}

// write gives leaf `index` a new image and updates the tree.
func (tt *testTree) write(index uint64, img *[64]byte) int {
	tt.images[index] = *img
	return tt.UpdateLeaf(index, 0)
}

// crash drops the overlay and swaps the leaf source's image of `index`
// for img: after a power failure the leaf images come from NVM, where
// an adversary can change them.
func (tt *testTree) crash(index uint64, img *[64]byte) {
	tt.DropVolatile()
	tt.images[index] = *img
}

func leafImg(seed byte) [64]byte {
	var img [64]byte
	for i := range img {
		img[i] = seed + byte(i)
	}
	return img
}

func TestGeometry16GB(t *testing.T) {
	// 16 GB data -> 4M counter blocks as leaves.
	tree, _ := newTestTree(4 << 20)
	if tree.Levels() != 8 {
		t.Fatalf("levels = %d, want 8 (so eager update = 9 MACs + 1 data MAC = paper's 10)", tree.Levels())
	}
}

func TestEagerUpdateReachesRoot(t *testing.T) {
	tree, _ := newTestTree(64)
	img := leafImg(1)
	macs := tree.write(5, &img)
	if macs != tree.Levels()+1 {
		t.Fatalf("eager update took %d MACs, want %d", macs, tree.Levels()+1)
	}
	root1 := tree.Root()
	img2 := leafImg(2)
	tree.write(5, &img2)
	if tree.Root() == root1 {
		t.Fatal("root unchanged after leaf update")
	}
}

func TestVerifyAfterUpdate(t *testing.T) {
	tree, _ := newTestTree(64)
	img := leafImg(3)
	tree.write(7, &img)
	if _, err := tree.VerifyLeaf(7); err != nil {
		t.Fatalf("verify of just-written leaf failed: %v", err)
	}
	tree.PersistAll()
	if _, err := tree.VerifyLeafFull(7); err != nil {
		t.Fatalf("full verify of a persisted leaf failed: %v", err)
	}
	bad := leafImg(4)
	tree.crash(7, &bad)
	if _, err := tree.VerifyLeaf(7); err == nil {
		t.Fatal("verify accepted a tampered leaf")
	}
}

// A just-written leaf passes a trusted verification without a hash: its
// slot awaits the MAC of the very image the check would hash.
func TestVerifyStaleLeafHashesNothing(t *testing.T) {
	tree, _ := newTestTree(4096)
	img := leafImg(1)
	tree.write(9, &img)
	before := tree.MACOps()
	if n, err := tree.VerifyLeaf(9); err != nil || n != 1 {
		t.Fatalf("verify of a stale leaf: %d modeled MACs, err %v; want 1, nil", n, err)
	}
	if tree.MACOps() != before {
		t.Fatalf("verify of a stale leaf hashed %d times", tree.MACOps()-before)
	}
	// A full walk hashes the leaf once; after it, the slot holds the
	// source's MAC and another walk needs no leaf hash.
	if _, err := tree.VerifyLeafFull(9); err != nil {
		t.Fatal(err)
	}
	walk := tree.MACOps() - before
	if _, err := tree.VerifyLeafFull(9); err != nil {
		t.Fatal(err)
	}
	if again := tree.MACOps() - before - walk; again != walk-1 {
		t.Fatalf("second full walk hashed %d times, want %d (no leaf hash)", again, walk-1)
	}
	// An audit hashes each leaf once: the first full walk through a
	// level-1 node fills its stale siblings, and theirs skip the leaf.
	for i := uint64(16); i < 20; i++ {
		tree.write(i, &img)
	}
	before = tree.MACOps()
	for i := uint64(16); i < 20; i++ {
		if _, err := tree.VerifyLeafFull(i); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tree.MACOps()-before, uint64(4+4*tree.Levels()); got != want {
		t.Fatalf("full walks of 4 sibling leaves hashed %d times, want %d", got, want)
	}
}

func TestVerifyUntouchedZeroLeaf(t *testing.T) {
	tree, _ := newTestTree(64)
	img := leafImg(5)
	tree.write(0, &img)
	if _, err := tree.VerifyLeaf(9); err != nil {
		t.Fatalf("zero-leaf convention broken: %v", err)
	}
	// A nonzero image in an untouched slot must NOT verify.
	nz := leafImg(6)
	tree.images[9] = nz
	if _, err := tree.VerifyLeaf(9); err == nil {
		t.Fatal("nonzero image accepted for untouched leaf")
	}
}

func TestPersistAndCrashDetectsStaleness(t *testing.T) {
	tree, _ := newTestTree(64)
	img1 := leafImg(1)
	tree.write(3, &img1)
	tree.PersistAll()
	img2 := leafImg(2)
	tree.write(3, &img2) // root now reflects img2; NVM still img1's nodes
	tree.DropVolatile()
	// Full verify against the persistent root register must reject the
	// stale NVM path (this is why Anubis shadow-tracking is needed).
	if _, err := tree.VerifyLeafFull(3); err == nil {
		t.Fatal("stale NVM tree accepted against updated root")
	}
	// And the old image fails too: the root moved on.
	tree.images[3] = img1
	if _, err := tree.VerifyLeafFull(3); err == nil {
		t.Fatal("old image accepted against updated root")
	}
}

func TestShadowRestoreRecovers(t *testing.T) {
	tree, _ := newTestTree(64)
	img1 := leafImg(1)
	tree.write(3, &img1)
	tree.PersistAll()
	img2 := leafImg(2)
	tree.write(3, &img2)

	// Anubis: capture dirty node images (the shadow region contents).
	type saved struct {
		level int
		index uint64
		img   [NodeSize]byte
	}
	var shadow []saved
	for _, d := range tree.DirtyNodes() {
		shadow = append(shadow, saved{int(d[0]), d[1], tree.NodeImage(int(d[0]), d[1])})
	}

	tree.DropVolatile()
	for _, s := range shadow {
		tree.RestoreNode(s.level, s.index, s.img)
	}
	if _, err := tree.VerifyLeafFull(3); err != nil {
		t.Fatalf("shadow-restored tree rejects current image: %v", err)
	}
}

func TestRebuildFromLeavesMatchesRoot(t *testing.T) {
	tree, _ := newTestTree(128)
	images := map[uint64][64]byte{}
	for _, idx := range []uint64{0, 9, 63, 127} {
		img := leafImg(byte(idx))
		images[idx] = img
		tree.write(idx, &img)
	}
	// Osiris slow path: rebuild from recovered leaves on a fresh tree
	// sharing the same NVM (here: fresh overlay).
	tree.DropVolatile()
	// NVM has no interior nodes persisted; rebuild purely from leaves.
	got := tree.RebuildFromLeaves(images)
	if got != tree.Root() {
		t.Fatalf("rebuilt root %x != register root %x", got, tree.Root())
	}
}

func TestRebuildDetectsTamperedLeaf(t *testing.T) {
	tree, _ := newTestTree(128)
	img := leafImg(1)
	tree.write(5, &img)
	tree.DropVolatile()
	tampered := leafImg(99)
	got := tree.RebuildFromLeaves(map[uint64][64]byte{5: tampered})
	if got == tree.Root() {
		t.Fatal("rebuild with tampered leaf matched root")
	}
}

func TestNodeAddressesDisjoint(t *testing.T) {
	tree, _ := newTestTree(4096)
	seen := map[uint64]bool{}
	for level := 1; level <= tree.Levels(); level++ {
		for idx := uint64(0); idx < 4; idx++ {
			a := tree.NodeNVMAddr(level, idx)
			if seen[a] {
				t.Fatalf("node address %#x reused", a)
			}
			seen[a] = true
		}
	}
}

// TestNodeAt round-trips NodeNVMAddr at the first and last node of
// every level, on a tree whose levels are not powers of the arity, and
// checks that an address below the node region or past its last level
// is no node.
func TestNodeAt(t *testing.T) {
	tree, _ := newTestTree(1000) // levels of 125, 16, 2 and 1 nodes
	type want struct {
		level int
		index uint64
		ok    bool
	}
	cases := map[uint64]want{
		tree.NodeNVMAddr(1, 0) - 1:                  {},
		tree.NodeNVMAddr(1, 0) + tree.RegionBytes(): {},
	}
	n := tree.Leaves()
	for level := 1; level <= tree.Levels(); level++ {
		n = (n + Arity - 1) / Arity
		cases[tree.NodeNVMAddr(level, 0)] = want{level, 0, true}
		cases[tree.NodeNVMAddr(level, n-1)] = want{level, n - 1, true}
	}
	if len(cases) != 2+2*tree.Levels()-1 { // the top level has one node
		t.Fatalf("%d cases for %d levels: addresses collide", len(cases), tree.Levels())
	}
	for addr, w := range cases {
		if level, index, ok := tree.NodeAt(addr); (want{level, index, ok}) != w {
			t.Errorf("NodeAt(%#x) = %d, %d, %v; want %d, %d, %v", addr, level, index, ok, w.level, w.index, w.ok)
		}
	}
}

func TestRegionBytes(t *testing.T) {
	tree, _ := newTestTree(64)
	// 64 leaves -> interior: 8 nodes + 1 node = 9 * 64 bytes.
	if got := tree.RegionBytes(); got != 9*NodeSize {
		t.Fatalf("RegionBytes = %d, want %d", got, 9*NodeSize)
	}
}

func TestUpdateVerifyProperty(t *testing.T) {
	// Property: any written image verifies; after a crash, any different
	// image fails.
	tree, _ := newTestTree(256)
	f := func(idx uint16, a, b [64]byte) bool {
		i := uint64(idx) % 256
		tree.write(i, &a)
		if _, err := tree.VerifyLeaf(i); err != nil {
			return false
		}
		if a == b {
			return true
		}
		tree.PersistAll()
		tree.crash(i, &b)
		_, err := tree.VerifyLeaf(i)
		tree.images[i] = a
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyErrorMessage(t *testing.T) {
	tree, _ := newTestTree(64)
	img := leafImg(1)
	tree.write(1, &img)
	bad := leafImg(2)
	tree.crash(1, &bad)
	_, err := tree.VerifyLeaf(1)
	ve, ok := err.(*VerifyError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ve.Error() == "" || ve.Level != 0 {
		t.Fatalf("unexpected VerifyError: %+v", ve)
	}
}

func TestAccessors(t *testing.T) {
	tree, _ := newTestTree(64)
	if tree.Leaves() != 64 {
		t.Fatal("Leaves wrong")
	}
	img := leafImg(1)
	tree.write(0, &img)
	if tree.Updates() != 1 || tree.MACOps() != 0 {
		t.Fatal("counters wrong")
	}
	var m = tree.Root()
	if tree.MACOps() != 1+uint64(tree.Levels()) {
		t.Fatalf("root read computed %d MACs, want the leaf and every level", tree.MACOps())
	}
	tree.SetRoot(m)
	if tree.Root() != m {
		t.Fatal("SetRoot wrong")
	}
}
