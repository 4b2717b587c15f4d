package masu_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dolos/internal/bmt/bmtref"
	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/scheme"
	"dolos/internal/toc/tocref"
)

// bmtPolicies returns one registry entry per distinct Ma-SU policy that
// runs on the BMT: the default, Triad-NVM (N=1), SuperMem (N=0) and STUM.
func bmtPolicies(t *testing.T) []scheme.Entry {
	var out []scheme.Entry
	seen := map[masu.Policy]bool{}
	for _, e := range scheme.All() {
		p := e.Pipeline
		if p.HasForceTree && p.ForceTree != masu.BMTEager {
			continue
		}
		if !seen[p.Policy] {
			seen[p.Policy] = true
			out = append(out, e)
		}
	}
	if len(out) != 4 {
		t.Fatalf("found %d distinct BMT policies in the registry, want 4", len(out))
	}
	return out
}

// eagerTree is what the crash rig reads of an eager reference tree
// (bmtref or tocref).
type eagerTree interface {
	Levels() int
	NodeNVMAddr(level int, index uint64) uint64
	NodeImage(level int, index uint64) [64]byte
}

// crashRig drives a unit and the eager reference tree with the same
// writes: the reference takes each applied op's counter-block image.
type crashRig struct {
	t      *testing.T
	e      scheme.Entry
	rng    *rand.Rand
	u      *masu.Unit
	lay    layout.Map
	ref    eagerTree
	leaves map[uint64][64]byte // leaf index -> last applied counter-block image
	lines  map[uint64][64]byte // data address -> last written plaintext
	pages  []uint64

	// refUpdate applies a leaf write to the reference; rootDiff
	// describes a root register that differs from the reference's, or
	// returns "".
	refUpdate func(leaf uint64, img *[64]byte)
	rootDiff  func() string
}

func newCrashRig(t *testing.T, e scheme.Entry, seed int64) *crashRig {
	var aesKey, macKey [16]byte
	copy(aesKey[:], "crash-aes-key-16")
	copy(macKey[:], "crash-mac-key-16")
	eng := crypt.NewEngine(aesKey, macKey)
	lay := layout.Small()
	r := &crashRig{
		t:      t,
		e:      e,
		rng:    rand.New(rand.NewSource(seed)),
		lay:    lay,
		leaves: map[uint64][64]byte{},
		lines:  map[uint64][64]byte{},
	}
	kind := masu.BMTEager
	if e.Pipeline.HasForceTree {
		kind = e.Pipeline.ForceTree
	}
	// Tiny metadata caches, so dirty tree nodes are evicted and
	// persisted between writes.
	r.u = masu.NewWithParams(kind, eng, nvm.NewDevice(nil, lay.DeviceSize, 0), lay, masu.Params{
		CounterCacheBytes: 1 << 10,
		MTCacheBytes:      2 << 10,
		Policy:            e.Pipeline.Policy,
	})
	refDev := nvm.NewDevice(nil, lay.DeviceSize, 0)
	switch kind {
	case masu.BMTEager:
		ref := bmtref.New(eng, refDev, lay.TreeBase, lay.Leaves())
		r.ref = ref
		r.refUpdate = func(leaf uint64, img *[64]byte) { ref.UpdateLeaf(leaf, img) }
		r.rootDiff = func() string {
			if got, want := r.u.BMT().Root(), ref.Root(); got != want {
				return fmt.Sprintf("root register %x, eager reference %x", got, want)
			}
			return ""
		}
	case masu.ToCLazy:
		ref := tocref.New(eng, refDev, lay.TreeBase, lay.Leaves())
		r.ref = ref
		r.refUpdate = func(leaf uint64, img *[64]byte) { ref.UpdateLeaf(leaf, img) }
		r.rootDiff = func() string {
			if got, want := r.u.ToC().RootVersion(), ref.RootVersion(); got != want {
				return fmt.Sprintf("root version %d, eager reference %d", got, want)
			}
			return ""
		}
	}
	for i := 0; i < 40; i++ {
		r.pages = append(r.pages, uint64(r.rng.Int63n(int64(lay.DataSpan/nvm.PageSize))))
	}
	return r
}

func (r *crashRig) randWrite() (uint64, [64]byte) {
	addr := r.lay.DataBase + r.pages[r.rng.Intn(len(r.pages))]*nvm.PageSize + uint64(r.rng.Intn(64))*64
	var p [64]byte
	r.rng.Read(p[:])
	return addr, p
}

func (r *crashRig) apply(op *masu.Op) {
	r.u.ApplyWrite(op)
	r.leaves[op.LeafIndex] = op.LeafImage
	r.lines[op.Addr] = op.Plain
	r.refUpdate(op.LeafIndex, &op.LeafImage)
}

func (r *crashRig) write(addr uint64, p [64]byte) {
	op, _ := r.u.PrepareWrite(addr, p, 0)
	r.apply(op)
}

func (r *crashRig) writes(n int) {
	for i := 0; i < n; i++ {
		r.write(r.randWrite())
	}
}

// checkCrashState compares the state a crash leaves behind with what
// eager hashing writes: the root register and every live shadow image.
func (r *crashRig) checkCrashState(when string) {
	r.t.Helper()
	if d := r.rootDiff(); d != "" {
		r.t.Fatalf("%s: %s: %s", r.e.Name, when, d)
	}
	nodes := map[uint64][2]uint64{}
	for leaf := range r.leaves {
		idx := leaf
		for level := 1; level <= r.ref.Levels(); level++ {
			idx /= 8
			nodes[r.ref.NodeNVMAddr(level, idx)] = [2]uint64{uint64(level), idx}
		}
	}
	for addr, img := range r.u.ShadowImages() {
		var want [64]byte
		if addr < r.lay.TreeBase {
			want = r.leaves[(addr-r.lay.CounterBase)/64]
		} else {
			n, ok := nodes[addr]
			if !ok {
				r.t.Fatalf("%s: %s: live shadow entry %#x is no written path's node", r.e.Name, when, addr)
			}
			want = r.ref.NodeImage(int(n[0]), n[1])
		}
		if img != want {
			r.t.Fatalf("%s: %s: shadow image at %#x differs from the eager reference", r.e.Name, when, addr)
		}
	}
}

func (r *crashRig) recover(osiris bool) {
	r.t.Helper()
	var err error
	switch {
	case r.e.Pipeline.Recovery == scheme.RecoverReconstruct:
		_, err = r.u.RecoverReconstruct()
	case osiris:
		_, err = r.u.RecoverOsiris()
	default:
		_, err = r.u.RecoverAnubis()
	}
	if err != nil {
		r.t.Fatalf("%s: recovery: %v", r.e.Name, err)
	}
	if d := r.rootDiff(); d != "" {
		r.t.Fatalf("%s: after recovery: %s", r.e.Name, d)
	}
	for addr, want := range r.lines {
		got, _, err := r.u.ReadLine(addr)
		if err != nil || got != want {
			r.t.Fatalf("%s: line %#x after recovery: err=%v", r.e.Name, addr, err)
		}
	}
}

// TestCrashStateMatchesEagerPerPolicy crashes every BMT policy of the
// registry after a run of writes and between PrepareWrite and
// ApplyWrite. At each crash the root register and the shadow region
// must hold exactly the eager reference's values, and recovery must
// restore every written line.
func TestCrashStateMatchesEagerPerPolicy(t *testing.T) {
	for i, e := range bmtPolicies(t) {
		r := newCrashRig(t, e, int64(i+1))

		r.writes(300)
		// A minor-counter overflow re-encrypts a page and bumps the major.
		addr, p := r.randWrite()
		for j := 0; j < 130; j++ {
			r.write(addr, p)
		}
		r.u.CrashVolatile()
		r.checkCrashState("crash after writes")
		r.recover(false)

		r.writes(200)
		addr, p = r.randWrite()
		op, _ := r.u.PrepareWrite(addr, p, 0)
		r.u.CrashVolatile()
		r.checkCrashState("crash with a staged op")
		// The replay applies the staged op: the reference takes it too.
		r.leaves[op.LeafIndex] = op.LeafImage
		r.lines[op.Addr] = op.Plain
		r.refUpdate(op.LeafIndex, &op.LeafImage)
		r.recover(false)

		// The slow path: probe counters and rebuild from the leaves.
		r.writes(100)
		addr, p = r.randWrite()
		op, _ = r.u.PrepareWrite(addr, p, 0)
		r.u.CrashVolatile()
		r.checkCrashState("second crash with a staged op")
		r.leaves[op.LeafIndex] = op.LeafImage
		r.lines[op.Addr] = op.Plain
		r.refUpdate(op.LeafIndex, &op.LeafImage)
		r.recover(true)
	}
}

// checkToCNodes compares the live ToC image of every node on a written
// leaf's path with the eager reference's.
func (r *crashRig) checkToCNodes(when string) {
	r.t.Helper()
	for leaf := range r.leaves {
		idx := leaf
		for level := 1; level <= r.ref.Levels(); level++ {
			idx /= 8
			if r.u.ToC().NodeImage(level, idx) != r.ref.NodeImage(level, idx) {
				r.t.Fatalf("%s: node (%d,%d) differs from the eager reference", when, level, idx)
			}
		}
	}
}

// TestToCCrashStateMatchesEager crashes the lazy ToC (Phoenix) after a
// run of writes and with a staged op. At each crash the root version and
// every live shadow image — pending entries filled from stale nodes
// included — must equal the eager reference's, and after recovery (the
// staged op replayed with its absolute versions) so must every node on
// a written path.
func TestToCCrashStateMatchesEager(t *testing.T) {
	e, ok := scheme.ByID(scheme.Phoenix)
	if !ok || e.Pipeline.ForceTree != masu.ToCLazy {
		t.Fatal("the registry's Phoenix entry does not run the lazy ToC")
	}
	r := newCrashRig(t, e, 7)

	r.writes(300)
	addr, p := r.randWrite()
	for j := 0; j < 130; j++ {
		r.write(addr, p)
	}
	r.u.CrashVolatile()
	r.checkCrashState("crash after writes")
	r.recover(false)
	r.checkToCNodes("after recovery")

	for round := 0; round < 2; round++ {
		r.writes(200)
		addr, p = r.randWrite()
		op, _ := r.u.PrepareWrite(addr, p, 0)
		r.u.CrashVolatile()
		r.checkCrashState("crash with a staged op")
		r.leaves[op.LeafIndex] = op.LeafImage
		r.lines[op.Addr] = op.Plain
		r.refUpdate(op.LeafIndex, &op.LeafImage)
		r.recover(false)
		r.checkToCNodes("after replaying the staged op")
	}
}
