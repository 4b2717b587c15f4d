package toc_test

import (
	"testing"
	"testing/quick"

	"dolos/internal/crypt"
	"dolos/internal/nvm"
	"dolos/internal/toc"
)

func newTestTree(leaves uint64) *toc.Tree {
	return toc.New(testEngine(), nvm.NewDevice(nil, 1<<30, 0), 1<<24, leaves)
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

// update stages and applies one leaf write, returning its leaf MAC.
func update(tr *toc.Tree, index uint64, img *[64]byte) crypt.MAC {
	var u toc.Update
	tr.Stage(&u, index, img)
	tr.Apply(&u)
	return u.LeafMAC
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
	tr.Stage(&u, 100, &img)
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
	mac := update(tr, 7, &img)
	if err := tr.VerifyLeaf(7, &img, mac); err != nil {
		t.Fatalf("verify failed: %v", err)
	}
	bad := leafImg(3)
	if err := tr.VerifyLeaf(7, &bad, mac); err == nil {
		t.Fatal("tampered image accepted")
	}
}

func TestReplayOldMACDetected(t *testing.T) {
	tr := newTestTree(512)
	img1 := leafImg(1)
	mac1 := update(tr, 7, &img1)
	img2 := leafImg(2)
	update(tr, 7, &img2)
	// Replaying the old image + old MAC must fail: the version moved.
	if err := tr.VerifyLeaf(7, &img1, mac1); err == nil {
		t.Fatal("replay of old image+MAC accepted")
	}
}

func TestVersionChainToRoot(t *testing.T) {
	tr := newTestTree(512)
	img := leafImg(4)
	mac := update(tr, 0, &img)
	tr.PersistAll()
	// Clear the dirty set so verification walks the full chain.
	tr.DropVolatile()
	if err := tr.VerifyLeafFull(0, &img, mac); err != nil {
		t.Fatalf("full verify after persist failed: %v", err)
	}
}

func TestCrashWithoutShadowFails(t *testing.T) {
	tr := newTestTree(512)
	img1 := leafImg(1)
	update(tr, 3, &img1)
	tr.PersistAll()
	img2 := leafImg(2)
	mac2 := update(tr, 3, &img2) // not persisted
	tr.DropVolatile()
	if err := tr.VerifyLeafFull(3, &img2, mac2); err == nil {
		t.Fatal("stale NVM ToC accepted against advanced root version")
	}
}

func TestShadowRestoreRecovers(t *testing.T) {
	tr := newTestTree(512)
	img1 := leafImg(1)
	update(tr, 3, &img1)
	tr.PersistAll()
	img2 := leafImg(2)
	mac2 := update(tr, 3, &img2)

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
	if err := tr.VerifyLeafFull(3, &img2, mac2); err != nil {
		t.Fatalf("shadow-recovered ToC rejected current image: %v", err)
	}
}

// A restored image carries its own MAC: a tampered one is detected even
// when the node was stale before the restore.
func TestTamperedRestoreDetected(t *testing.T) {
	tr := newTestTree(512)
	img := leafImg(1)
	mac := update(tr, 3, &img)
	shadow := tr.NodeImage(2, 0)
	update(tr, 3, &img) // node (2, 0) stale again
	tr.DropVolatile()
	shadow[0] ^= 0xFF
	tr.RestoreNode(2, 0, shadow)
	if err := tr.VerifyLeafFull(3, &img, mac); err == nil {
		t.Fatal("tampered shadow image accepted")
	}
}

func TestIndependentLeaves(t *testing.T) {
	tr := newTestTree(512)
	a, b := leafImg(1), leafImg(2)
	macA := update(tr, 10, &a)
	macB := update(tr, 400, &b)
	if err := tr.VerifyLeaf(10, &a, macA); err != nil {
		t.Fatalf("leaf 10: %v", err)
	}
	if err := tr.VerifyLeaf(400, &b, macB); err != nil {
		t.Fatalf("leaf 400: %v", err)
	}
	// Swapping images across leaves must fail (relocation).
	if err := tr.VerifyLeaf(10, &b, macB); err == nil {
		t.Fatal("relocated leaf accepted")
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

func TestManyUpdatesProperty(t *testing.T) {
	tr := newTestTree(256)
	f := func(idx uint8, img [64]byte) bool {
		mac := update(tr, uint64(idx), &img)
		return tr.VerifyLeaf(uint64(idx), &img, mac) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	tr := newTestTree(512)
	if tr.Leaves() != 512 {
		t.Fatal("Leaves wrong")
	}
	img := leafImg(1)
	update(tr, 0, &img)
	if tr.Updates() != 1 || tr.MACOps() == 0 {
		t.Fatal("counters wrong")
	}
}
