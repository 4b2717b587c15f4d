package attack

import (
	"strings"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/sim"
)

// newVictim builds a Ma-SU with some persisted data and everything
// flushed to NVM, then severs the volatile state — the post-crash image
// an adversary gets to play with.
func newVictim(t *testing.T) (*masu.Unit, *nvm.Device, layout.Map) {
	t.Helper()
	var aesKey, macKey [16]byte
	copy(aesKey[:], "victim-aes-key16")
	copy(macKey[:], "victim-mac-key16")
	eng := crypt.NewEngine(aesKey, macKey)
	lay := layout.Small()
	dev := nvm.NewDevice(nil, lay.DeviceSize, 0)
	u := masu.New(masu.BMTEager, eng, dev, lay, 0)
	var p [64]byte
	for i := uint64(0); i < 8; i++ {
		for j := range p {
			p[j] = byte(i*16 + uint64(j))
		}
		u.ProcessWrite(0x1000+i*64, p, -1)
	}
	return u, dev, lay
}

func TestSpoofDetectedOnRead(t *testing.T) {
	u, dev, _ := newVictim(t)
	adv := New(dev, 1)
	adv.Spoof(0x1000, 64)
	if _, _, err := u.ReadLine(0x1000); err == nil {
		t.Fatal("spoofed line read back cleanly")
	}
	if len(adv.Log()) != 1 || !strings.Contains(adv.Log()[0], "spoof") {
		t.Fatalf("attack log = %v", adv.Log())
	}
}

func TestFlipBitDetected(t *testing.T) {
	u, dev, _ := newVictim(t)
	New(dev, 1).FlipBit(0x1040, 3)
	if _, _, err := u.ReadLine(0x1040); err == nil {
		t.Fatal("single flipped bit not detected")
	}
}

func TestRelocationDetected(t *testing.T) {
	u, dev, _ := newVictim(t)
	adv := New(dev, 1)
	// Swap both ciphertexts AND their MACs — the strongest relocation.
	lay := layout.Small()
	adv.Relocate(0x1000, 0x1040)
	m1 := dev.ReadLine(lay.LineMACAddr(0x1000))
	// MAC region is packed; swap the two 8-byte MACs by hand.
	a := lay.LineMACAddr(0x1000)
	b := lay.LineMACAddr(0x1040)
	bufA := make([]byte, 8)
	bufB := make([]byte, 8)
	dev.Read(a, bufA)
	dev.Read(b, bufB)
	dev.Write(a, bufB)
	dev.Write(b, bufA)
	_ = m1
	if _, _, err := u.ReadLine(0x1000); err == nil {
		t.Fatal("relocated line+MAC pair accepted")
	}
}

func TestFullReplayDetectedAtRecovery(t *testing.T) {
	u, dev, _ := newVictim(t)
	adv := New(dev, 1)
	// Persist everything, snapshot, advance state, roll back.
	u.Counters().PersistAll()
	u.BMT().PersistAll()
	adv.Snapshot("old")
	var p [64]byte
	p[0] = 0xEE
	u.ProcessWrite(0x1000, p, -1)
	if err := adv.Replay("old"); err != nil {
		t.Fatal(err)
	}
	u.CrashVolatile()
	// Strongest variant: the adversary also corrupts the shadow region,
	// forcing the slow (Osiris) recovery path to judge the rollback.
	u.TamperShadow()
	if _, err := u.RecoverOsiris(); err == nil {
		t.Fatal("full rollback accepted: replay undetected")
	}
}

func TestRangeReplayDetected(t *testing.T) {
	u, dev, _ := newVictim(t)
	adv := New(dev, 1)
	adv.Snapshot("old")
	var p [64]byte
	p[0] = 0x77
	u.ProcessWrite(0x1000, p, -1) // counter moves ahead of snapshot
	if err := adv.ReplayRange("old", 0x1000, 64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.ReadLine(0x1000); err == nil {
		t.Fatal("targeted ciphertext replay accepted")
	}
}

func TestUnknownSnapshotErrors(t *testing.T) {
	_, dev, _ := newVictim(t)
	adv := New(dev, 1)
	if err := adv.Replay("nope"); err == nil {
		t.Fatal("unknown snapshot accepted")
	}
	if err := adv.ReplayRange("nope", 0, 64); err == nil {
		t.Fatal("unknown snapshot accepted for range replay")
	}
}

func TestWPQDrainImageAttack(t *testing.T) {
	// End-to-end: crash a Dolos controller, tamper the drained WPQ image
	// in NVM, and require recovery to reject it.
	eng, ctrl := newDolosSystem(t)
	var p [64]byte
	p[0] = 0x11
	ctrl.PersistWrite(0x2000, &p, nil)
	eng.RunUntil(200) // entry still in WPQ
	if _, err := ctrl.Crash(); err != nil {
		t.Fatal(err)
	}
	adv := New(ctrlDevice, 99)
	adv.Spoof(layout.Small().DrainBase+8+8, 4) // inside slot 0's ciphertext
	if _, err := ctrl.Recover(controller.AnubisRecovery); err == nil {
		t.Fatal("tampered WPQ drain image accepted at recovery")
	}
}

// ctrlDevice is captured by newDolosSystem for attack access.
var ctrlDevice *nvm.Device

func newDolosSystem(t *testing.T) (*sim.Engine, *controller.Controller) {
	t.Helper()
	eng := sim.NewEngine()
	lay := layout.Small()
	dev := nvm.NewDevice(eng, lay.DeviceSize, 0)
	ctrlDevice = dev
	cfg := controller.Config{Scheme: controller.DolosPartial, Layout: lay}
	copy(cfg.AESKey[:], "attack-aes-key16")
	copy(cfg.MACKey[:], "attack-mac-key16")
	return eng, controller.New(eng, dev, cfg)
}
