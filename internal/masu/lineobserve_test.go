package masu

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"dolos/internal/attack"
	"dolos/internal/crypt"
	"dolos/internal/ctr"
	"dolos/internal/layout"
	"dolos/internal/nvm"
	"dolos/internal/trace"
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

// A write computes no data-line AES pad, MAC or ECC word, a minor-
// counter overflow's page re-encryption and a checkpoint load included;
// a read of a line whose data is pending computes none either; a
// snapshot after N writes to K distinct lines fills exactly K pads, K
// MACs and K ECC words, a second observation fills nothing, and a read
// of a filled line computes one pad (DESIGN.md §18).
func TestWriteComputesNoLineHash(t *testing.T) {
	for _, kind := range []TreeKind{BMTEager, ToCLazy} {
		t.Run(kind.String(), func(t *testing.T) {
			u, dev, c := newCountingUnit(kind)
			work := func() uint64 { return c.LineMACs + c.NodeMACs + c.ECCs + c.Pads }

			// 160 writes to one line overflow its 7-bit minor counter:
			// the page re-encrypts, and still nothing is computed.
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
			if c.LineMACs != 0 || c.ECCs != 0 || c.Pads != 0 {
				t.Fatalf("writes computed %d line MACs, %d ECC words and %d pads, want none", c.LineMACs, c.ECCs, c.Pads)
			}
			img := make([]trace.InitLine, 96)
			for j := range img {
				img[j] = trace.InitLine{Addr: 0x20000 + uint64(j)*64, Data: line(byte(j))}
			}
			u.LoadImage(img)
			if c.LineMACs != 0 || c.ECCs != 0 || c.Pads != 0 {
				t.Fatalf("LoadImage computed %d line MACs, %d ECC words and %d pads, want none", c.LineMACs, c.ECCs, c.Pads)
			}

			before := work()
			if got, _, err := u.ReadLine(0x10000 + 31*64); err != nil || got != line(255) {
				t.Fatalf("read of a pending line: %v", err)
			}
			if got, _, err := u.ReadLine(0x20000 + 95*64); err != nil || got != line(95) {
				t.Fatalf("read of a loaded line: %v", err)
			}
			if n := work() - before; n != 0 {
				t.Fatalf("reads of pending lines computed %d hashes and pads, want none", n)
			}

			// Fresh unit: N = 200 writes to K = 40 lines, no overflow.
			u, dev, c = newCountingUnit(kind)
			const k = 40
			for j := uint64(0); j < 200; j++ {
				u.ProcessWrite(0x1000+j%k*64, line(byte(j)), -1)
			}
			dev.Snapshot()
			if c.Pads != k || c.LineMACs != k || c.ECCs != k {
				t.Fatalf("snapshot filled %d pads, %d MACs and %d ECC words, want %d of each", c.Pads, c.LineMACs, c.ECCs, k)
			}
			dev.Snapshot()
			dev.AllocatedPages()
			if c.Pads != k || c.LineMACs != k || c.ECCs != k {
				t.Fatal("a second observation filled lines again")
			}
			// A filled line's read verifies its stored MAC and decrypts:
			// one line MAC and one pad.
			if got, _, err := u.ReadLine(0x1000); err != nil || got != line(160) {
				t.Fatalf("read of a filled line: %v", err)
			}
			if c.LineMACs != k+1 || c.Pads != k+1 {
				t.Fatalf("a read of a filled line computed %d line MACs and %d pads, want 1 of each", c.LineMACs-k, c.Pads-k)
			}
		})
	}
}

// eagerLine is what an eager write leaves in NVM for plaintext plain at
// addr under counter — the ciphertext, its MAC and the plaintext's ECC
// word — computed from the crypt package alone, with the unit's keys.
func eagerLine(addr, counter uint64, plain [64]byte) (ct [64]byte, mac crypt.MAC, ecc uint32) {
	var aesKey, macKey [16]byte
	copy(aesKey[:], "masu-aes-key-016")
	copy(macKey[:], "masu-mac-key-016")
	e := crypt.NewEngine(aesKey, macKey)
	ct = e.EncryptLine(plain, crypt.MakeIV(addr/nvm.PageSize, uint16(addr%nvm.PageSize/64), counter))
	return ct, e.LineMAC(&ct, addr, counter), crypt.ECC(&plain)
}

// No observer sees a line's staged plaintext. Lines are built by a
// write, by a checkpoint load, and by a page re-encryption (of a filled
// line, of a data-pending line and of a never-written one); each is then
// observed by a device read of the line, of its MAC slot or of its ECC
// word, by a device snapshot, by an adversary's snapshot, or by a crash.
// After the observation the line's NVM bytes, MAC slot and ECC word are
// the eager ones for its plaintext under its counter.
func TestNoObserverSeesPlaintext(t *testing.T) {
	const a, b = 0x3040, 0x3000 // two lines of one page
	overflow := func(u *Unit) {
		for i := 0; i < 128; i++ {
			u.ProcessWrite(b, line(byte(i)), -1)
		}
	}
	builds := []struct {
		name  string
		build func(u *Unit, dev *nvm.Device) (plain [64]byte)
	}{
		{"write", func(u *Unit, _ *nvm.Device) [64]byte {
			u.ProcessWrite(a, line(7), -1)
			return line(7)
		}},
		{"load", func(u *Unit, _ *nvm.Device) [64]byte {
			u.LoadImage([]trace.InitLine{{Addr: b, Data: line(6)}, {Addr: a, Data: line(7)}, {Addr: a + 64, Data: line(8)}})
			return line(7)
		}},
		{"reencrypt-filled", func(u *Unit, dev *nvm.Device) [64]byte {
			u.ProcessWrite(a, line(7), -1)
			dev.Snapshot()
			overflow(u)
			return line(7)
		}},
		{"reencrypt-pending", func(u *Unit, _ *nvm.Device) [64]byte {
			u.ProcessWrite(a, line(7), -1)
			overflow(u)
			return line(7)
		}},
		{"reencrypt-unwritten", func(u *Unit, _ *nvm.Device) [64]byte {
			overflow(u)
			return [64]byte{}
		}},
	}
	observers := []struct {
		name    string
		observe func(u *Unit, dev *nvm.Device, lay layout.Map) (seen []byte)
	}{
		{"read-line", func(_ *Unit, dev *nvm.Device, _ layout.Map) []byte {
			l := dev.ReadLine(a)
			return l[:]
		}},
		{"read-mac", func(_ *Unit, dev *nvm.Device, lay layout.Map) []byte {
			dev.Read(lay.LineMACAddr(a), make([]byte, crypt.MACSize))
			return nil
		}},
		{"read-ecc", func(_ *Unit, dev *nvm.Device, lay layout.Map) []byte {
			dev.Read(lay.ECCAddr(a), make([]byte, eccSize))
			return nil
		}},
		{"snapshot", func(_ *Unit, dev *nvm.Device, _ layout.Map) []byte {
			p := dev.Snapshot()[a/nvm.PageSize]
			return p[a%nvm.PageSize : a%nvm.PageSize+64]
		}},
		{"adversary", func(_ *Unit, dev *nvm.Device, _ layout.Map) []byte {
			adv := attack.New(dev, 1)
			adv.Snapshot("s")
			dev.WriteLine(a, [64]byte{})
			if err := adv.ReplayRange("s", a, 64); err != nil {
				panic(err)
			}
			return nil // the replay wrote back what the adversary saw
		}},
		{"crash", func(u *Unit, _ *nvm.Device, _ layout.Map) []byte {
			u.CrashVolatile()
			return nil
		}},
	}
	for _, kind := range []TreeKind{BMTEager, ToCLazy} {
		for _, bc := range builds {
			for _, oc := range observers {
				t.Run(kind.String()+"/"+bc.name+"/"+oc.name, func(t *testing.T) {
					u, dev, lay := newUnit(kind)
					plain := bc.build(u, dev)
					i := u.lineIdx(a)
					if u.written.Get(i)&dataPending == 0 {
						t.Fatal("the built line's data is not pending")
					}
					counter := u.counters.Counter(a)
					if strings.HasPrefix(bc.name, "reencrypt") && counter>>ctr.MinorBits == 0 {
						t.Fatal("the page did not re-encrypt")
					}
					wantCT, wantMAC, wantECC := eagerLine(a, counter, plain)
					seen := oc.observe(u, dev, lay)
					if seen != nil && string(seen) != string(wantCT[:]) {
						t.Fatalf("the observer saw %x, want the eager ciphertext %x", seen, wantCT)
					}
					if u.written.Get(i)&linePending != 0 {
						t.Fatal("the observation left the line pending")
					}
					if got := u.dataWB.ReadLine(a); got != wantCT {
						t.Fatalf("NVM holds %x, want the eager ciphertext %x", got, wantCT)
					}
					var mac crypt.MAC
					var ecc [eccSize]byte
					dev.Read(lay.LineMACAddr(a), mac[:])
					dev.Read(lay.ECCAddr(a), ecc[:])
					if mac != wantMAC || binary.LittleEndian.Uint32(ecc[:]) != wantECC {
						t.Fatal("the MAC slot or the ECC word is not the eager one")
					}
					if oc.name != "crash" {
						if got, _, err := u.ReadLine(a); err != nil || got != plain {
							t.Fatalf("read after the observation: %v", err)
						}
					}
				})
			}
		}
	}
}

// Tampering with a written line's data, data MAC or ECC word before
// anything has observed it — while its ciphertext, MAC and ECC are
// still pending — is detected: a data or MAC tamper by the next
// ReadLine, and every one by Osiris recovery after a crash. The device
// fills a pending line before a foreign access to it, its MAC slot or
// its ECC word, so the adversary reads and overwrites the bytes an
// eager write would have put there. The line's second version is
// installed by a write, or by a checkpoint load that stages it in the
// middle of a run.
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
	installs := []struct {
		prefix  string // of the subtest names
		install func(u *Unit)
	}{
		{"", func(u *Unit) { u.ProcessWrite(a, line(4), -1) }},
		{"loaded-", func(u *Unit) {
			u.LoadImage([]trace.InitLine{{Addr: a + 128, Data: line(5)}, {Addr: a, Data: line(4)}})
		}},
	}
	for _, in := range installs {
		for _, tc := range cases {
			t.Run(in.prefix+tc.name, func(t *testing.T) {
				u, dev, _ := newUnit(BMTEager)
				adv := attack.New(dev, 7)
				u.ProcessWrite(a, line(1), -1)
				u.ProcessWrite(b, line(2), -1)
				u.ProcessWrite(far, line(3), -1)
				adv.Snapshot("v1") // the replay source: the first version of a
				// The second version of a: its data, MAC and ECC are
				// pending.
				in.install(u)
				if u.written.Get(u.lineIdx(a))&linePending != linePending {
					t.Fatal("the second version's data is not pending")
				}
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
}

// A recovery that changes a data-pending line's counter fills the line
// first: its ciphertext, MAC and ECC are owed under the counter it was
// written with, and they reach NVM under that counter.
func TestRebuildLineCountersFillsFirst(t *testing.T) {
	const a = 0x2040
	u, _, lay := newUnit(BMTEager)
	u.ProcessWrite(a, line(1), -1)
	leaf := lay.LeafIndex(a)
	older := u.counters.ImageByIndex(leaf)
	u.ProcessWrite(a, line(2), -1)
	written := u.counters.Counter(a)
	u.counters.RestoreByIndex(leaf, older) // the counter steps back
	if u.counters.Counter(a) == written || u.written.Get(u.lineIdx(a))&dataPending == 0 {
		t.Fatal("set-up: the line is not pending under a counter the store no longer holds")
	}
	u.rebuildLineCounters()
	if u.written.Get(u.lineIdx(a))&linePending != 0 {
		t.Fatal("a pending line's counter changed without a fill")
	}
	wantCT, wantMAC, _ := eagerLine(a, written, line(2))
	var mac crypt.MAC
	u.dev.Read(lay.LineMACAddr(a), mac[:])
	if u.dataWB.ReadLine(a) != wantCT || mac != wantMAC {
		t.Fatal("the line was not filled under the counter it was written with")
	}
}
