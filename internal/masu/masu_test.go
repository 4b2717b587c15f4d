package masu

import (
	"testing"

	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/nvm"
)

func newUnit(kind TreeKind) (*Unit, *nvm.Device, layout.Map) {
	var aesKey, macKey [16]byte
	copy(aesKey[:], "masu-aes-key-016")
	copy(macKey[:], "masu-mac-key-016")
	eng := crypt.NewEngine(aesKey, macKey)
	lay := layout.Small()
	dev := nvm.NewDevice(nil, lay.DeviceSize, 0)
	return New(kind, eng, dev, lay, 0), dev, lay
}

func line(seed byte) [64]byte {
	var l [64]byte
	for i := range l {
		l[i] = seed ^ byte(i*11)
	}
	return l
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, kind := range []TreeKind{BMTEager, ToCLazy} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			u, _, _ := newUnit(kind)
			want := line(1)
			u.ProcessWrite(0x1000, want, 0)
			got, _, err := u.ReadLine(0x1000)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if got != want {
				t.Fatal("read returned wrong plaintext")
			}
		})
	}
}

func TestCiphertextOnDevice(t *testing.T) {
	u, dev, _ := newUnit(BMTEager)
	want := line(2)
	u.ProcessWrite(0x2000, want, 0)
	raw := dev.ReadLine(0x2000)
	if raw == want {
		t.Fatal("plaintext stored in NVM")
	}
}

func TestUnwrittenLineReadsZero(t *testing.T) {
	u, _, _ := newUnit(BMTEager)
	got, _, err := u.ReadLine(0x5000)
	if err != nil || got != [64]byte{} {
		t.Fatalf("unwritten read: %v, %v", got, err)
	}
}

func TestOverwriteBumpsCounter(t *testing.T) {
	u, dev, _ := newUnit(BMTEager)
	u.ProcessWrite(0x1000, line(1), 0)
	ct1 := dev.ReadLine(0x1000)
	u.ProcessWrite(0x1000, line(1), 0)
	ct2 := dev.ReadLine(0x1000)
	if ct1 == ct2 {
		t.Fatal("same plaintext re-encrypted to same ciphertext (counter not advancing)")
	}
	got, _, err := u.ReadLine(0x1000)
	if err != nil || got != line(1) {
		t.Fatalf("read after overwrite: %v", err)
	}
}

func TestSpoofingDetected(t *testing.T) {
	for _, kind := range []TreeKind{BMTEager, ToCLazy} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			u, dev, _ := newUnit(kind)
			u.ProcessWrite(0x1000, line(1), 0)
			ct := dev.ReadLine(0x1000)
			ct[0] ^= 0xFF
			dev.WriteLine(0x1000, ct)
			if _, _, err := u.ReadLine(0x1000); err == nil {
				t.Fatal("spoofed line accepted")
			}
		})
	}
}

func TestRelocationDetected(t *testing.T) {
	u, dev, _ := newUnit(BMTEager)
	u.ProcessWrite(0x1000, line(1), 0)
	u.ProcessWrite(0x2000, line(2), 0)
	// Swap ciphertexts and MACs between the two addresses.
	lay := u.lay
	c1, c2 := dev.ReadLine(0x1000), dev.ReadLine(0x2000)
	dev.WriteLine(0x1000, c2)
	dev.WriteLine(0x2000, c1)
	m1 := make([]byte, 8)
	m2 := make([]byte, 8)
	dev.Read(lay.LineMACAddr(0x1000), m1)
	dev.Read(lay.LineMACAddr(0x2000), m2)
	dev.Write(lay.LineMACAddr(0x1000), m2)
	dev.Write(lay.LineMACAddr(0x2000), m1)
	if _, _, err := u.ReadLine(0x1000); err == nil {
		t.Fatal("relocated line accepted")
	}
}

func TestReplayDetectedAfterRecovery(t *testing.T) {
	// Replay: snapshot NVM, write again, roll NVM back, then recover.
	// The persistent root register must reject the rolled-back image.
	u, dev, _ := newUnit(BMTEager)
	u.ProcessWrite(0x1000, line(1), 0)
	// Persist everything so the snapshot is a complete old image.
	u.counters.PersistAll()
	u.bmtTree.PersistAll()
	snap := dev.Snapshot()
	u.ProcessWrite(0x1000, line(2), 0)
	dev.Restore(snap) // adversary rolls back NVM
	u.CrashVolatile()
	u.WipeShadow() // adversary also wiped the shadow region
	if _, err := u.RecoverAnubis(); err == nil {
		t.Fatal("replayed (rolled back) NVM image accepted")
	}
}

func TestEagerWriteCost(t *testing.T) {
	u, _, _ := newUnit(BMTEager)
	cost := u.ProcessWrite(0x1000, line(1), 0)
	if cost.SerialMACs != 10 {
		t.Fatalf("eager serial MACs = %d, want 10 (Table 1: 160x10)", cost.SerialMACs)
	}
	if cost.AESOps < 1 || cost.NVMWrites == 0 {
		t.Fatalf("cost = %+v", cost)
	}
}

func TestLazyWriteCost(t *testing.T) {
	u, _, _ := newUnit(ToCLazy)
	cost := u.ProcessWrite(0x1000, line(1), 0)
	if cost.SerialMACs != 4 {
		t.Fatalf("lazy serial MACs = %d, want 4 (Table 1: 160x4)", cost.SerialMACs)
	}
	// The data MAC plus every ToC level and the leaf, all modeled.
	if want := 1 + u.ToC().Levels() + 1; cost.TotalMACs != want {
		t.Fatalf("lazy total MACs = %d, want %d", cost.TotalMACs, want)
	}
}

func TestCounterCacheHitsOnLocality(t *testing.T) {
	u, _, _ := newUnit(BMTEager)
	var first, second Cost
	first = u.ProcessWrite(0x1000, line(1), 0)
	second = u.ProcessWrite(0x1040, line(2), 0) // same page -> same counter block
	if first.CounterMisses != 1 {
		t.Fatalf("first write counter misses = %d", first.CounterMisses)
	}
	if second.CounterMisses != 0 {
		t.Fatalf("second write counter misses = %d, want 0 (cached)", second.CounterMisses)
	}
}

func TestCrashBetweenPrepareAndApply(t *testing.T) {
	u, _, _ := newUnit(BMTEager)
	u.ProcessWrite(0x1000, line(1), 0)
	op, _ := u.PrepareWrite(0x2000, line(2), 3)
	_ = op
	if !u.RedoReady() {
		t.Fatal("ready bit not set after Prepare")
	}
	u.CrashVolatile()
	rep, err := u.RecoverAnubis()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if !rep.RedoReplayed {
		t.Fatal("redo log not replayed")
	}
	got, _, err := u.ReadLine(0x2000)
	if err != nil || got != line(2) {
		t.Fatalf("staged write lost: %v", err)
	}
}

func TestCrashWithoutRedoDiscards(t *testing.T) {
	u, _, _ := newUnit(BMTEager)
	u.ProcessWrite(0x1000, line(1), 0)
	u.CrashVolatile()
	rep, err := u.RecoverAnubis()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rep.RedoReplayed {
		t.Fatal("phantom redo replay")
	}
	got, _, err := u.ReadLine(0x1000)
	if err != nil || got != line(1) {
		t.Fatalf("committed write lost: %v", err)
	}
}

func TestAnubisRecoveryManyWrites(t *testing.T) {
	for _, kind := range []TreeKind{BMTEager, ToCLazy} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			u, _, _ := newUnit(kind)
			want := map[uint64][64]byte{}
			for i := uint64(0); i < 40; i++ {
				addr := 0x1000 + i*64
				p := line(byte(i))
				u.ProcessWrite(addr, p, 0)
				want[addr] = p
			}
			u.CrashVolatile()
			rep, err := u.RecoverAnubis()
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if rep.LinesVerified != 40 {
				t.Fatalf("verified %d lines", rep.LinesVerified)
			}
			for addr, p := range want {
				got, _, err := u.ReadLine(addr)
				if err != nil || got != p {
					t.Fatalf("line %#x lost after recovery: %v", addr, err)
				}
			}
		})
	}
}

func TestOsirisRecovery(t *testing.T) {
	u, _, _ := newUnit(BMTEager)
	want := map[uint64][64]byte{}
	for i := uint64(0); i < 10; i++ {
		addr := 0x3000 + i*64
		p := line(byte(100 + i))
		// Write several times so counters lead their persisted values.
		u.ProcessWrite(addr, line(byte(i)), 0)
		u.ProcessWrite(addr, p, 0)
		want[addr] = p
	}
	u.CrashVolatile()
	u.WipeShadow() // force the slow path: no shadow
	rep, err := u.RecoverOsiris()
	if err != nil {
		t.Fatalf("Osiris recovery: %v", err)
	}
	if rep.OsirisProbes < 10 {
		t.Fatalf("suspiciously few probes: %d", rep.OsirisProbes)
	}
	for addr, p := range want {
		got, _, err := u.ReadLine(addr)
		if err != nil || got != p {
			t.Fatalf("line %#x wrong after Osiris recovery: %v", addr, err)
		}
	}
}

func TestOsirisDetectsTamper(t *testing.T) {
	u, dev, _ := newUnit(BMTEager)
	u.ProcessWrite(0x1000, line(1), 0)
	u.CrashVolatile()
	ct := dev.ReadLine(0x1000)
	ct[5] ^= 1
	dev.WriteLine(0x1000, ct)
	if _, err := u.RecoverOsiris(); err == nil {
		t.Fatal("Osiris accepted tampered ciphertext")
	}
}

func TestShadowTamperDetected(t *testing.T) {
	u, _, _ := newUnit(BMTEager)
	u.ProcessWrite(0x1000, line(1), 0)
	u.CrashVolatile()
	if !u.TamperShadow() {
		t.Fatal("no shadow entries to tamper")
	}
	if _, err := u.RecoverAnubis(); err == nil {
		t.Fatal("tampered shadow region accepted")
	}
}

func TestMinorOverflowReencryptsPage(t *testing.T) {
	u, _, _ := newUnit(BMTEager)
	a := uint64(0x4000)
	b := a + 64
	u.ProcessWrite(b, line(7), 0)
	var sawOverflow bool
	for i := 0; i < 128; i++ {
		cost := u.ProcessWrite(a, line(byte(i)), 0)
		if cost.ReencryptedLines > 0 {
			sawOverflow = true
			// The whole page re-encrypts (63 lines besides the trigger):
			// the reset gives every line a fresh nonzero counter, so
			// every line needs matching ciphertext+MAC.
			if cost.ReencryptedLines != 63 {
				t.Fatalf("re-encrypted %d lines, want 63 (full page)", cost.ReencryptedLines)
			}
		}
	}
	if !sawOverflow {
		t.Fatal("no overflow in 128 writes")
	}
	// Both lines still readable, and a never-written line in the page
	// now reads as zeroes with a verifiable MAC.
	got, _, err := u.ReadLine(b)
	if err != nil || got != line(7) {
		t.Fatalf("neighbour line corrupted by overflow: %v", err)
	}
	zero, _, err := u.ReadLine(a + 128)
	if err != nil || zero != [64]byte{} {
		t.Fatalf("untouched line in overflowed page: %v", err)
	}
	if err := u.CheckLine(a + 128); err != nil {
		t.Fatalf("audit of untouched line after overflow: %v", err)
	}
}

func TestTreeKindString(t *testing.T) {
	if BMTEager.String() != "eager-BMT" || ToCLazy.String() != "lazy-ToC" {
		t.Fatal("bad kind names")
	}
	if BMTEager.SerialMACs() != 10 || ToCLazy.SerialMACs() != 4 {
		t.Fatal("bad serial MAC constants")
	}
}
