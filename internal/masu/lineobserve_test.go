package masu

import (
	"errors"
	"testing"

	"dolos/internal/attack"
	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/nvm"
)

// newCountingUnit is newUnit over a crypt.Counting provider.
func newCountingUnit(kind TreeKind) (*Unit, *nvm.Device, *crypt.Counting) {
	var aesKey, macKey [16]byte
	copy(aesKey[:], "masu-aes-key-016")
	copy(macKey[:], "masu-mac-key-016")
	c := &crypt.Counting{Provider: crypt.NewEngine(aesKey, macKey)}
	lay := layout.Small()
	dev := nvm.NewDevice(nil, lay.DeviceSize, 0)
	return New(kind, c, dev, lay, 0), dev, c
}

// A write computes no data-line MAC and no ECC word, a minor-counter
// overflow's page re-encryption included; a read of a line whose MAC is
// pending hashes nothing at all; and a snapshot after N writes to K
// distinct lines fills exactly K MACs and K ECC words (DESIGN.md §18).
func TestWriteComputesNoLineHash(t *testing.T) {
	for _, kind := range []TreeKind{BMTEager, ToCLazy} {
		t.Run(kind.String(), func(t *testing.T) {
			u, dev, c := newCountingUnit(kind)
			hashes := func() uint64 { return c.LineMACs + c.NodeMACs + c.ECCs }

			// 160 writes to one line overflow its 7-bit minor counter:
			// the page re-encrypts, and still nothing is hashed.
			const a = 0x4000
			var reenc int
			for i := 0; i < 160; i++ {
				reenc += u.ProcessWrite(a, line(byte(i)), -1).ReencryptedLines
			}
			for j := uint64(0); j < 256; j++ {
				u.ProcessWrite(0x10000+j%32*64, line(byte(j)), -1)
			}
			if reenc == 0 {
				t.Fatal("no page re-encryption in 160 writes to one line")
			}
			if c.LineMACs != 0 || c.ECCs != 0 {
				t.Fatalf("writes computed %d line MACs and %d ECC words, want none", c.LineMACs, c.ECCs)
			}

			before := hashes()
			if got, _, err := u.ReadLine(0x10000 + 31*64); err != nil || got != line(255) {
				t.Fatalf("read of a pending line: %v", err)
			}
			if n := hashes() - before; n != 0 {
				t.Fatalf("a read of a pending line computed %d hashes, want none", n)
			}

			// Fresh unit: N = 200 writes to K = 40 lines, no overflow.
			u, dev, c = newCountingUnit(kind)
			const k = 40
			for j := uint64(0); j < 200; j++ {
				u.ProcessWrite(0x1000+j%k*64, line(byte(j)), -1)
			}
			dev.Snapshot()
			if c.LineMACs != k || c.ECCs != k {
				t.Fatalf("snapshot filled %d MACs and %d ECC words, want %d of each", c.LineMACs, c.ECCs, k)
			}
			dev.Snapshot()
			dev.AllocatedPages()
			if c.LineMACs != k || c.ECCs != k {
				t.Fatal("a second observation filled lines again")
			}
			// A filled line's read verifies its stored MAC: one line MAC.
			if _, _, err := u.ReadLine(0x1000); err != nil {
				t.Fatal(err)
			}
			if c.LineMACs != k+1 {
				t.Fatalf("a read of a filled line computed %d line MACs, want 1", c.LineMACs-k)
			}
		})
	}
}

// Tampering with a written line's data, data MAC or ECC word before
// anything has observed its MAC or ECC — while both are still pending —
// is detected: a data or MAC tamper by the next ReadLine, and every one
// by Osiris recovery after a crash. The device fills a pending line
// before a foreign write to it, its MAC slot or its ECC word lands, so
// the adversary overwrites the bytes an eager write would have put
// there.
func TestTamperPendingLineDetected(t *testing.T) {
	const a, b = 0x1000, 0x1040 // two lines of one page
	lay := layout.Small()
	macLine := func(addr uint64) uint64 { return lay.LineMACAddr(addr) &^ 63 }
	eccLine := func(addr uint64) uint64 { return lay.ECCAddr(addr) &^ 63 }
	far := uint64(0x100000) // a written line in another MAC and ECC line
	cases := []struct {
		name   string
		ecc    bool // only Osiris recovery can see it
		tamper func(adv *attack.Adversary, u *Unit) error
	}{
		{"spoof-data", false, func(adv *attack.Adversary, _ *Unit) error { adv.Spoof(a, 64); return nil }},
		{"flip-data", false, func(adv *attack.Adversary, _ *Unit) error { adv.FlipBit(a+5, 3); return nil }},
		{"relocate-data", false, func(adv *attack.Adversary, _ *Unit) error { adv.Relocate(a, b); return nil }},
		{"replay-data", false, func(adv *attack.Adversary, u *Unit) error {
			return adv.ReplayRange("v1", a, 64)
		}},
		{"spoof-mac", false, func(adv *attack.Adversary, _ *Unit) error {
			adv.Spoof(lay.LineMACAddr(a), crypt.MACSize)
			return nil
		}},
		{"flip-mac", false, func(adv *attack.Adversary, _ *Unit) error { adv.FlipBit(lay.LineMACAddr(a), 0); return nil }},
		{"relocate-mac", false, func(adv *attack.Adversary, _ *Unit) error {
			adv.Relocate(macLine(a), macLine(far))
			return nil
		}},
		{"replay-mac", false, func(adv *attack.Adversary, _ *Unit) error {
			return adv.ReplayRange("v1", lay.LineMACAddr(a), crypt.MACSize)
		}},
		{"spoof-ecc", true, func(adv *attack.Adversary, _ *Unit) error { adv.Spoof(lay.ECCAddr(a), 4); return nil }},
		{"flip-ecc", true, func(adv *attack.Adversary, _ *Unit) error { adv.FlipBit(lay.ECCAddr(a)+1, 2); return nil }},
		{"relocate-ecc", true, func(adv *attack.Adversary, _ *Unit) error {
			adv.Relocate(eccLine(a), eccLine(far))
			return nil
		}},
		{"replay-ecc", true, func(adv *attack.Adversary, _ *Unit) error {
			return adv.ReplayRange("v1", lay.ECCAddr(a), 4)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u, dev, _ := newUnit(BMTEager)
			adv := attack.New(dev, 7)
			u.ProcessWrite(a, line(1), -1)
			u.ProcessWrite(b, line(2), -1)
			u.ProcessWrite(far, line(3), -1)
			adv.Snapshot("v1") // the replay source: the first version of a
			// The second version of a: its MAC and ECC are pending.
			u.ProcessWrite(a, line(4), -1)
			if err := tc.tamper(adv, u); err != nil {
				t.Fatal(err)
			}
			if !tc.ecc {
				var ie *IntegrityError
				if _, _, err := u.ReadLine(a); !errors.As(err, &ie) {
					t.Fatalf("ReadLine after %s: %v, want an IntegrityError", tc.name, err)
				}
			}
			u.CrashVolatile()
			if _, err := u.RecoverOsiris(); err == nil {
				t.Fatalf("Osiris recovery accepted %s", tc.name)
			}
		})
	}
}
