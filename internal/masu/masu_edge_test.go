package masu

import (
	"errors"
	"reflect"
	"testing"

	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/nvm"
)

// newSmallCacheUnit builds a Ma-SU whose metadata caches are tiny, so
// evictions (and the lazy persistence they trigger) happen constantly.
func newSmallCacheUnit(kind TreeKind) (*Unit, *nvm.Device) {
	var aesKey, macKey [16]byte
	copy(aesKey[:], "edge-aes-key-016")
	copy(macKey[:], "edge-mac-key-016")
	eng := crypt.NewEngine(aesKey, macKey)
	lay := layout.Small()
	dev := nvm.NewDevice(nil, lay.DeviceSize, 0)
	u := NewWithParams(kind, eng, dev, lay, Params{
		CounterCacheBytes: 1 << 10, // 4 sets x 4 ways
		MTCacheBytes:      2 << 10,
	})
	return u, dev
}

func TestEvictionPersistsMetadata(t *testing.T) {
	u, _ := newSmallCacheUnit(BMTEager)
	// Write across many pages so counter blocks and tree nodes thrash
	// through the tiny caches, forcing dirty evictions to NVM.
	var p [64]byte
	for i := uint64(0); i < 128; i++ {
		p[0] = byte(i)
		u.ProcessWrite(0x1000+i*4096, p, -1)
	}
	if u.CounterCache().Writebacks() == 0 {
		t.Fatal("tiny counter cache produced no writebacks")
	}
	// After evictions persisted the metadata, even a shadow-less crash
	// must recover via the NVM copies for the evicted (clean) blocks
	// plus Osiris probing for the rest.
	u.CrashVolatile()
	if _, err := u.RecoverOsiris(); err != nil {
		t.Fatalf("Osiris recovery after heavy eviction: %v", err)
	}
	for i := uint64(0); i < 128; i++ {
		got, _, err := u.ReadLine(0x1000 + i*4096)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("line %d content wrong after recovery", i)
		}
	}
}

func TestShadowRetiredOnEviction(t *testing.T) {
	u, _ := newSmallCacheUnit(BMTEager)
	var p [64]byte
	for i := uint64(0); i < 64; i++ {
		u.ProcessWrite(0x1000+i*4096, p, -1)
	}
	// The shadow region mirrors only dirty-in-cache metadata; with a
	// tiny cache most blocks have been evicted (persisted), so shadow
	// entries must have been retired rather than accumulating forever.
	if u.ShadowEntries() > 200 {
		t.Fatalf("shadow region grew to %d entries; eviction retirement broken", u.ShadowEntries())
	}
}

func TestAnubisWithTinyCaches(t *testing.T) {
	u, _ := newSmallCacheUnit(BMTEager)
	want := map[uint64][64]byte{}
	var p [64]byte
	for i := uint64(0); i < 64; i++ {
		p[0] = byte(i * 3)
		u.ProcessWrite(0x1000+i*4096, p, -1)
		want[0x1000+i*4096] = p
	}
	u.CrashVolatile()
	if _, err := u.RecoverAnubis(); err != nil {
		t.Fatalf("Anubis recovery with tiny caches: %v", err)
	}
	for addr, exp := range want {
		got, _, err := u.ReadLine(addr)
		if err != nil || got != exp {
			t.Fatalf("line %#x wrong: %v", addr, err)
		}
	}
}

func TestToCSmallCacheCrash(t *testing.T) {
	u, _ := newSmallCacheUnit(ToCLazy)
	var p [64]byte
	for i := uint64(0); i < 48; i++ {
		p[0] = byte(i)
		u.ProcessWrite(0x1000+i*4096, p, -1)
	}
	u.CrashVolatile()
	if _, err := u.RecoverAnubis(); err != nil {
		t.Fatalf("ToC recovery with tiny caches: %v", err)
	}
}

func TestRepeatedCrashRecoverCycles(t *testing.T) {
	u, _ := newSmallCacheUnit(BMTEager)
	var p [64]byte
	for round := 0; round < 5; round++ {
		for i := uint64(0); i < 16; i++ {
			p[0] = byte(round*16 + int(i))
			u.ProcessWrite(0x1000+i*64, p, -1)
		}
		u.CrashVolatile()
		if _, err := u.RecoverAnubis(); err != nil {
			t.Fatalf("round %d recovery: %v", round, err)
		}
	}
	got, _, err := u.ReadLine(0x1000)
	if err != nil || got[0] != byte(4*16) {
		t.Fatalf("final state wrong after 5 crash cycles: %v", err)
	}
}

func TestPrepareWithoutApplyThenDiscard(t *testing.T) {
	// A crash before the ready bit is architecturally the same as the
	// redo log being discarded — but our model sets ready at the end of
	// Prepare, so simulate discard by recovering with the op applied and
	// verifying idempotence of a second recovery.
	u, _ := newSmallCacheUnit(BMTEager)
	var p [64]byte
	u.ProcessWrite(0x1000, p, -1)
	op, _ := u.PrepareWrite(0x2000, p, 1)
	_ = op
	u.CrashVolatile()
	if _, err := u.RecoverAnubis(); err != nil {
		t.Fatal(err)
	}
	u.CrashVolatile()
	rep, err := u.RecoverAnubis()
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if rep.RedoReplayed {
		t.Fatal("redo replayed twice")
	}
}

func TestWriteLineSizes(t *testing.T) {
	u, _ := newSmallCacheUnit(BMTEager)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-region write did not panic")
		}
	}()
	var p [64]byte
	u.ProcessWrite(layout.Small().DataSpan+4096, p, -1)
}

// A ToC node entry is only marked pending on a write; TamperShadow must
// fill it before corrupting it, or the crash's fill would overwrite the
// tampering and recovery would accept the tree.
func TestTamperPendingToCEntryDetected(t *testing.T) {
	var aesKey, macKey [16]byte
	copy(aesKey[:], "edge-aes-key-016")
	copy(macKey[:], "edge-mac-key-016")
	lay := layout.Small()
	// Write-through counters keep counter blocks out of the shadow
	// region, so its lowest live entry is a ToC node.
	u := NewWithParams(ToCLazy, crypt.NewEngine(aesKey, macKey), nvm.NewDevice(nil, lay.DeviceSize, 0), lay,
		Params{Policy: Policy{CounterWriteThrough: true}})
	for i := uint64(0); i < 16; i++ {
		u.ProcessWrite(0x1000+i*64, line(byte(i)), -1)
	}
	found := false
	u.shadow.Range(func(i uint64, e *shadowEntry) bool {
		if !e.live {
			return true
		}
		if _, _, node := u.nodeRefAt(lay.CounterBase + i*64); !e.pending || !node {
			t.Fatalf("lowest live shadow entry %#x is not a pending ToC node", lay.CounterBase+i*64)
		}
		found = true
		return false
	})
	if !found {
		t.Fatal("no live shadow entries")
	}
	if !u.TamperShadow() {
		t.Fatal("no shadow entries to tamper")
	}
	u.CrashVolatile()
	if _, err := u.RecoverAnubis(); err == nil {
		t.Fatal("tampered pending ToC shadow entry accepted")
	}
}

func TestRebuildRecoveryNeedsBMT(t *testing.T) {
	u, _, _ := newUnit(ToCLazy)
	u.ProcessWrite(0x1000, line(1), -1)
	u.CrashVolatile()
	if _, err := u.RecoverOsiris(); !errors.Is(err, ErrNeedsBMT) {
		t.Fatalf("RecoverOsiris on the ToC: %v, want ErrNeedsBMT", err)
	}
	if _, err := u.RecoverReconstruct(); !errors.Is(err, ErrNeedsBMT) {
		t.Fatalf("RecoverReconstruct on the ToC: %v, want ErrNeedsBMT", err)
	}
}

// A redo replay installs the staged path nodes' whole version arrays:
// tampering with the other slots of a path node's shadow image is
// overwritten, and recovery ends byte for byte where an untampered one
// does.
func TestReplayOverwritesTamperedPathNode(t *testing.T) {
	run := func(tamper bool) (*Unit, *nvm.Device) {
		u, dev, lay := newUnit(ToCLazy)
		// Lines in 80 pages: the staged leaf's path nodes have written
		// children on either side of the path.
		for pg := uint64(0); pg < 80; pg++ {
			u.ProcessWrite(lay.DataBase+pg*4096+pg%64*64, line(byte(pg)), -1)
		}
		addr := lay.DataBase + 11*4096 + 5*64
		op, _ := u.PrepareWrite(addr, line(0xA5), 0)
		u.CrashVolatile()
		if tamper {
			tampered := 0
			child := op.LeafIndex
			for level := 1; level <= u.ToC().Levels(); level++ {
				idx := child / 8
				i := (u.ToC().NodeNVMAddr(level, idx) - lay.CounterBase) / 64
				if !u.shadow.Get(i).live {
					t.Fatalf("path node (%d,%d) has no live shadow entry", level, idx)
				}
				img := u.shadowImg.Ptr(i)
				for s := uint64(0); s < 8; s++ {
					if s != child%8 && img[s*7] != 0 {
						img[s*7]-- // roll the version back
						tampered++
					}
				}
				child = idx
			}
			if tampered == 0 {
				t.Fatal("no version off the path to tamper with")
			}
		}
		rep, err := u.RecoverAnubis()
		if err != nil {
			t.Fatalf("tamper=%v: recovery: %v", tamper, err)
		}
		if !rep.RedoReplayed {
			t.Fatalf("tamper=%v: staged op not replayed", tamper)
		}
		if got, _, err := u.ReadLine(addr); err != nil || got != line(0xA5) {
			t.Fatalf("tamper=%v: replayed line reads %x, %v", tamper, got[:4], err)
		}
		u.ToC().PersistAll()
		return u, dev
	}
	clean, cleanDev := run(false)
	tampered, tamperedDev := run(true)
	if clean.ToC().RootVersion() != tampered.ToC().RootVersion() {
		t.Fatal("root versions differ after recovery")
	}
	if !reflect.DeepEqual(cleanDev.Snapshot(), tamperedDev.Snapshot()) {
		t.Fatal("NVM after recovery differs from the untampered run")
	}
}

// Every recovery path accepts a unit that was never written: the
// rebuilt tree has no leaf, and the root register was never set.
func TestRecoverNeverWritten(t *testing.T) {
	for _, kind := range []TreeKind{BMTEager, ToCLazy} {
		for _, path := range []struct {
			name    string
			recover func(u *Unit) (RecoveryReport, error)
		}{
			{"anubis", (*Unit).RecoverAnubis},
			{"osiris", (*Unit).RecoverOsiris},
			{"reconstruct", (*Unit).RecoverReconstruct},
		} {
			u, _, _ := newUnit(kind)
			u.CrashVolatile()
			if _, err := path.recover(u); err != nil && !errors.Is(err, ErrNeedsBMT) {
				t.Errorf("%s %s recovery of a never-written unit: %v", kind, path.name, err)
			}
		}
	}
}
