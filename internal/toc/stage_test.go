package toc_test

import (
	"testing"

	"dolos/internal/nvm"
	"dolos/internal/toc"
	"dolos/internal/toc/tocref"
)

// A staged-then-applied write produces the eager reference's leaf MAC,
// root version and node images.
func TestStageApplyMatchesReference(t *testing.T) {
	staged := newTestTree(512)
	ref := tocref.New(testEngine(), nvm.NewDevice(nil, 1<<30, 0), 1<<24, 512)
	for i := byte(0); i < 20; i++ {
		idx := uint64(i) * 25 % 512
		img := leafImg(i)
		macR := ref.UpdateLeaf(idx, &img)
		update(staged, idx, &img)
		if staged.storedMAC(idx) != macR {
			t.Fatalf("leaf MACs diverged at write %d", i)
		}
		if ref.RootVersion() != staged.RootVersion() {
			t.Fatalf("root versions diverged at write %d", i)
		}
		for l, c := 1, idx/toc.Arity; l <= staged.Levels(); l, c = l+1, c/toc.Arity {
			if staged.NodeImage(l, c) != ref.NodeImage(l, c) {
				t.Fatalf("write %d: node (%d,%d) image differs", i, l, c)
			}
		}
		if err := staged.VerifyLeaf(idx); err != nil {
			t.Fatalf("staged leaf does not verify: %v", err)
		}
	}
}

func TestStageDoesNotMutate(t *testing.T) {
	tr := newTestTree(512)
	img := leafImg(1)
	update(tr, 7, &img)
	ver := tr.RootVersion()
	before := tr.NodeImage(1, 0)
	var u toc.Update
	tr.Stage(&u, 7)
	if tr.RootVersion() != ver || tr.NodeImage(1, 0) != before {
		t.Fatal("Stage changed the tree")
	}
	if err := tr.VerifyLeafFull(7); err != nil {
		t.Fatalf("Stage disturbed live state: %v", err)
	}
	if u.RootVer != ver+1 || u.Leaf != 7 {
		t.Fatalf("staged update malformed: root %d leaf %d", u.RootVer, u.Leaf)
	}
}
