package controller

import (
	"testing"

	"dolos/internal/masu"
	"dolos/internal/sim"
)

func TestEADRAcceptsImmediately(t *testing.T) {
	eng, c := newSystem(EADRSecure, masu.BMTEager)
	var at sim.Cycle
	c.PersistWrite(0x1000, lineRef(1), func() { at = eng.Now() })
	eng.Run(0)
	if at > 2 {
		t.Fatalf("eADR acceptance at %d cycles, want ~1", at)
	}
	if c.RetryEvents() != 0 {
		t.Fatal("eADR produced retry events")
	}
}

func TestEADRFunctionallySecured(t *testing.T) {
	eng, c := newSystem(EADRSecure, masu.BMTEager)
	for i := uint64(0); i < 8; i++ {
		c.PersistWrite(0x1000+i*64, lineRef(byte(i)), nil)
	}
	eng.Run(0)
	for i := uint64(0); i < 8; i++ {
		got, _, err := c.MaSU().ReadLine(0x1000 + i*64)
		if err != nil || got != line(byte(i)) {
			t.Fatalf("eADR line %d not secured/persisted: %v", i, err)
		}
	}
}

func TestEADRFasterThanIdealWPQ(t *testing.T) {
	// eADR dodges even the WPQ acceptance path, so a bursty write storm
	// completes no later than under the ideal-ADR scheme.
	run := func(s Scheme) sim.Cycle {
		eng, c := newSystem(s, masu.BMTEager)
		var last sim.Cycle
		for i := uint64(0); i < 64; i++ {
			c.PersistWrite(0x1000+i*64, lineRef(byte(i)), func() {
				if eng.Now() > last {
					last = eng.Now()
				}
			})
		}
		eng.Run(0)
		return last
	}
	if eadr, ideal := run(EADRSecure), run(NonSecureADR); eadr > ideal {
		t.Fatalf("eADR (%d) slower than ideal ADR (%d)", eadr, ideal)
	}
}

func TestEADRCrashRecover(t *testing.T) {
	eng, c := newSystem(EADRSecure, masu.BMTEager)
	c.PersistWrite(0x1000, lineRef(1), nil)
	eng.Run(0)
	if _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(AnubisRecovery); err != nil {
		t.Fatalf("eADR recovery: %v", err)
	}
	got, _, err := c.MaSU().ReadLine(0x1000)
	if err != nil || got != line(1) {
		t.Fatalf("eADR write lost across crash: %v", err)
	}
}

// TestCrossSchemeFunctionalEquivalence is the differential property: the
// same trace of writes leaves identical verified plaintext on NVM under
// every scheme once quiesced — timing models differ, the protected state
// must not.
func TestCrossSchemeFunctionalEquivalence(t *testing.T) {
	addrs := make([]uint64, 24)
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(i)*4096/2
	}
	ref := map[uint64][64]byte{}
	for _, s := range append(allSchemes(), EADRSecure) {
		eng, c := newSystem(s, masu.BMTEager)
		for i, a := range addrs {
			c.PersistWrite(a, lineRef(byte(i*7)), nil)
		}
		eng.Run(0)
		for i, a := range addrs {
			got, _, err := c.MaSU().ReadLine(a)
			if err != nil {
				t.Fatalf("%v: read %#x: %v", s, a, err)
			}
			if got != line(byte(i*7)) {
				t.Fatalf("%v: wrong plaintext at %#x", s, a)
			}
			if prev, ok := ref[a]; ok && prev != got {
				t.Fatalf("scheme %v diverged at %#x", s, a)
			}
			ref[a] = got
		}
	}
}
