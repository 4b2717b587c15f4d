package toc_test

import (
	"testing"
	"testing/quick"

	"dolos/internal/crypt"
	"dolos/internal/nvm"
	"dolos/internal/toc"
	"dolos/internal/toc/tocref"
)

// testTree is a tree with its device and leaf source: a map of leaf
// images that update keeps in step with Apply, as the counter store
// does.
type testTree struct {
	*toc.Tree
	dev    *nvm.Device
	images map[uint64][64]byte
}

func newTestTree(leaves uint64) *testTree {
	tt := &testTree{dev: nvm.NewDevice(nil, 1<<30, 0), images: map[uint64][64]byte{}}
	tt.Tree = toc.New(testEngine(), tt.dev, 1<<24, leaves, func(i uint64) [64]byte { return tt.images[i] })
	return tt
}

func testEngine() *crypt.Engine {
	var aesKey, macKey [16]byte
	copy(macKey[:], "toc-test-mac-key")
	return crypt.NewEngine(aesKey, macKey)
}

func leafImg(seed byte) [64]byte {
	var img [64]byte
	for i := range img {
		img[i] = seed ^ byte(i*3)
	}
	return img
}

// update stages and applies one leaf write.
func update(tr *testTree, index uint64, img *[64]byte) {
	var u toc.Update
	tr.Stage(&u, index)
	tr.images[index] = *img
	tr.Apply(&u)
}

// storedMAC reads leaf `index`'s MAC from the leaf-MAC region.
func (tt *testTree) storedMAC(index uint64) crypt.MAC {
	var m crypt.MAC
	tt.dev.Read(tt.LeafMACAddr(index), m[:])
	return m
}

// crash persists the tree and drops its overlay, leaving NVM, the leaf
// source and the root version consistent.
func (tt *testTree) crash() {
	tt.PersistAll()
	tt.DropVolatile()
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	f := func(vers [toc.Arity]uint64, mac [8]byte) bool {
		var n toc.Node
		for i, v := range vers {
			n.Versions[i] = v & (1<<56 - 1)
		}
		n.MAC = crypt.MAC(mac)
		return toc.DecodeNode(n.Encode()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateAdvancesAllVersions(t *testing.T) {
	tr := newTestTree(512) // levels: 64, 8, 1
	img := leafImg(1)
	update(tr, 100, &img)
	var u toc.Update
	tr.Stage(&u, 100)
	if u.RootVer != tr.RootVersion()+1 {
		t.Fatalf("staged root version %d, want %d", u.RootVer, tr.RootVersion()+1)
	}
	for l, c := 0, uint64(100); l < tr.Levels(); l, c = l+1, c/toc.Arity {
		for s, v := range u.Versions[l] {
			want := uint64(0)
			if uint64(s) == c%toc.Arity {
				want = 2
			}
			if v != want {
				t.Fatalf("level %d slot %d version %d after two writes, want %d", l+1, s, v, want)
			}
		}
	}
	tr.Apply(&u)
	if tr.RootVersion() != 2 {
		t.Fatalf("root version %d, want 2", tr.RootVersion())
	}
}

func TestVerifyAfterUpdate(t *testing.T) {
	tr := newTestTree(512)
	img := leafImg(2)
	update(tr, 7, &img)
	if err := tr.VerifyLeaf(7); err != nil {
		t.Fatalf("verify failed: %v", err)
	}
	tr.crash()
	if err := tr.VerifyLeaf(7); err != nil {
		t.Fatalf("verify after a clean crash failed: %v", err)
	}
	tr.images[7] = leafImg(3) // tampered NVM counter block
	if err := tr.VerifyLeaf(7); err == nil {
		t.Fatal("tampered image accepted")
	}
}

func TestReplayOldMACDetected(t *testing.T) {
	tr := newTestTree(512)
	img1 := leafImg(1)
	update(tr, 7, &img1)
	mac1 := tr.storedMAC(7)
	img2 := leafImg(2)
	update(tr, 7, &img2)
	tr.crash()
	// Replaying the old image + old MAC must fail: the version moved.
	tr.images[7] = img1
	tr.dev.Write(tr.LeafMACAddr(7), mac1[:])
	if err := tr.VerifyLeaf(7); err == nil {
		t.Fatal("replay of old image+MAC accepted")
	}
}

func TestVersionChainToRoot(t *testing.T) {
	tr := newTestTree(512)
	img := leafImg(4)
	update(tr, 0, &img)
	// Clear the dirty set so verification walks the full chain.
	tr.crash()
	if err := tr.VerifyLeafFull(0); err != nil {
		t.Fatalf("full verify after persist failed: %v", err)
	}
}

func TestCrashWithoutShadowFails(t *testing.T) {
	tr := newTestTree(512)
	img1 := leafImg(1)
	update(tr, 3, &img1)
	tr.PersistAll()
	img2 := leafImg(2)
	update(tr, 3, &img2) // not persisted
	tr.DropVolatile()
	if err := tr.VerifyLeafFull(3); err == nil {
		t.Fatal("stale NVM ToC accepted against advanced root version")
	}
}

func TestShadowRestoreRecovers(t *testing.T) {
	tr := newTestTree(512)
	img1 := leafImg(1)
	update(tr, 3, &img1)
	tr.PersistAll()
	img2 := leafImg(2)
	update(tr, 3, &img2)

	type saved struct {
		level int
		index uint64
		img   [toc.NodeSize]byte
	}
	var shadow []saved
	for _, d := range tr.DirtyNodes() {
		shadow = append(shadow, saved{int(d[0]), d[1], tr.NodeImage(int(d[0]), d[1])})
	}
	tr.DropVolatile()
	for _, s := range shadow {
		tr.RestoreNode(s.level, s.index, s.img)
	}
	if err := tr.VerifyLeafFull(3); err != nil {
		t.Fatalf("shadow-recovered ToC rejected current image: %v", err)
	}
}

// A restored image carries its own MAC: a tampered one is detected even
// when the node was stale before the restore.
func TestTamperedRestoreDetected(t *testing.T) {
	tr := newTestTree(512)
	img := leafImg(1)
	update(tr, 3, &img)
	shadow := tr.NodeImage(2, 0)
	update(tr, 3, &img) // node (2, 0) stale again
	tr.DropVolatile()
	shadow[0] ^= 0xFF
	tr.RestoreNode(2, 0, shadow)
	if err := tr.VerifyLeafFull(3); err == nil {
		t.Fatal("tampered shadow image accepted")
	}
}

func TestIndependentLeaves(t *testing.T) {
	tr := newTestTree(512)
	a, b := leafImg(1), leafImg(2)
	update(tr, 10, &a)
	update(tr, 400, &b)
	if err := tr.VerifyLeaf(10); err != nil {
		t.Fatalf("leaf 10: %v", err)
	}
	if err := tr.VerifyLeaf(400); err != nil {
		t.Fatalf("leaf 400: %v", err)
	}
	// Moving leaf 400's image and MAC to leaf 10 must fail (relocation).
	tr.crash()
	macB := tr.storedMAC(400)
	tr.images[10] = b
	tr.dev.Write(tr.LeafMACAddr(10), macB[:])
	if err := tr.VerifyLeaf(10); err == nil {
		t.Fatal("relocated leaf accepted")
	}
}

// A write computes no MAC. The leaf-MAC region is written back: reading
// a stale leaf's MAC hashes that leaf alone, a snapshot writes every
// stale leaf, and each equals the eager reference's.
func TestLeafMACsWrittenBackWhenObserved(t *testing.T) {
	tr := newTestTree(512)
	refDev := nvm.NewDevice(nil, 1<<30, 0)
	ref := tocref.New(testEngine(), refDev, 1<<24, 512)
	leaves := []uint64{5, 6, 200}
	for _, i := range leaves {
		img := leafImg(byte(i))
		update(tr, i, &img)
		ref.UpdateLeaf(i, &img)
	}
	if n := tr.MACOps(); n != 0 {
		t.Fatalf("three writes computed %d MACs, want none", n)
	}
	var want crypt.MAC
	refDev.Read(ref.LeafMACAddr(6), want[:])
	if got := tr.storedMAC(6); got != want || tr.MACOps() != 1 {
		t.Fatalf("reading leaf 6's MAC: %x after %d MACs, want %x after 1", got, tr.MACOps(), want)
	}
	snap, refSnap := tr.dev.Snapshot(), refDev.Snapshot()
	if tr.MACOps() != 3 {
		t.Fatalf("snapshot brought the total to %d MACs, want 3", tr.MACOps())
	}
	for _, i := range leaves {
		a := tr.LeafMACAddr(i)
		pg, pgRef := snap[a/nvm.PageSize], refSnap[a/nvm.PageSize]
		off := a % nvm.PageSize
		if got, want := pg[off:off+crypt.MACSize], pgRef[off:off+crypt.MACSize]; string(got) != string(want) {
			t.Fatalf("snapshot holds leaf %d MAC %x, reference %x", i, got, want)
		}
	}
}

func TestRegionAndAddrs(t *testing.T) {
	tr := newTestTree(512)
	if tr.RegionBytes() != (64+8+1)*toc.NodeSize {
		t.Fatalf("RegionBytes = %d", tr.RegionBytes())
	}
	if tr.NodeNVMAddr(1, 0) == tr.NodeNVMAddr(2, 0) {
		t.Fatal("level regions overlap")
	}
}

// TestNodeAt round-trips NodeNVMAddr at the first and last node of
// every level, on a tree whose levels are not powers of the arity, and
// checks that an address below the node region, past its last level or
// in the leaf-MAC region that follows it is no node.
func TestNodeAt(t *testing.T) {
	tr := newTestTree(1000) // levels of 125, 16, 2 and 1 nodes
	type want struct {
		level int
		index uint64
		ok    bool
	}
	cases := map[uint64]want{
		tr.NodeNVMAddr(1, 0) - 1:                   {},
		tr.NodeNVMAddr(1, 0) + tr.RegionBytes():    {},
		tr.LeafMACAddr(0):                          {},
		tr.LeafMACAddr(tr.Leaves() - 1):            {},
		tr.LeafMACAddr(tr.Leaves()) + toc.NodeSize: {},
	}
	n := tr.Leaves()
	for level := 1; level <= tr.Levels(); level++ {
		n = (n + toc.Arity - 1) / toc.Arity
		cases[tr.NodeNVMAddr(level, 0)] = want{level, 0, true}
		cases[tr.NodeNVMAddr(level, n-1)] = want{level, n - 1, true}
	}
	// The leaf-MAC region starts where the nodes end, and the top level
	// has one node.
	if len(cases) != 4+2*tr.Levels()-1 {
		t.Fatalf("%d cases for %d levels: addresses collide", len(cases), tr.Levels())
	}
	for addr, w := range cases {
		if level, index, ok := tr.NodeAt(addr); (want{level, index, ok}) != w {
			t.Errorf("NodeAt(%#x) = %d, %d, %v; want %d, %d, %v", addr, level, index, ok, w.level, w.index, w.ok)
		}
	}
}

func TestManyUpdatesProperty(t *testing.T) {
	tr := newTestTree(256)
	f := func(idx uint8, img [64]byte) bool {
		update(tr, uint64(idx), &img)
		return tr.VerifyLeaf(uint64(idx)) == nil && tr.VerifyLeafFull(uint64(idx)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	tr.crash()
	for i := uint64(0); i < 256; i++ {
		if err := tr.VerifyLeafFull(i); err != nil && tr.images[i] != ([64]byte{}) {
			t.Fatalf("leaf %d after a clean crash: %v", i, err)
		}
	}
}

func TestAccessors(t *testing.T) {
	tr := newTestTree(512)
	if tr.Leaves() != 512 {
		t.Fatal("Leaves wrong")
	}
	img := leafImg(1)
	update(tr, 0, &img)
	if tr.Updates() != 1 || tr.MACOps() != 0 {
		t.Fatal("counters wrong")
	}
	tr.PersistAll()
	if tr.MACOps() != uint64(tr.Levels()) {
		t.Fatalf("PersistAll computed %d MACs, want one per path node", tr.MACOps())
	}
}
