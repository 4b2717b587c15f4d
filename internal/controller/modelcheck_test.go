package controller

// System-level model check: random persist writes, evictions, reads,
// crashes and recoveries against a plain-map oracle, with the
// discrete-event clock advancing between operations. The oracle tracks
// the last ACCEPTED value per line; after any quiesce or recovery the
// secure memory must agree.

import (
	"math/rand"
	"testing"

	"dolos/internal/masu"
	"dolos/internal/sim"
)

func TestModelCheckController(t *testing.T) {
	for _, scheme := range []Scheme{PreWPQSecure, DolosFull, DolosPartial, DolosPost, EADRSecure} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(scheme) + 99))
			eng, c := newSystem(scheme, masu.BMTEager)
			oracle := map[uint64][64]byte{}
			addrs := make([]uint64, 20)
			for i := range addrs {
				addrs[i] = 0x1000 + uint64(i)*192 // three lines apart, crossing pages
			}

			pending := 0
			inflight := map[uint64]int{}
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(100); {
				case op < 60: // persist write
					addr := addrs[rng.Intn(len(addrs))]
					var val [64]byte
					rng.Read(val[:])
					pending++
					inflight[addr]++
					c.PersistWrite(addr, &val, func() {
						oracle[addr] = val
						pending--
						inflight[addr]--
					})
					eng.RunUntil(eng.Now() + sim.Cycle(rng.Intn(1200)))
				case op < 75: // quiesce and read back a random line
					eng.Run(0)
					if pending != 0 {
						t.Fatalf("step %d: %d writes never accepted", step, pending)
					}
					addr := addrs[rng.Intn(len(addrs))]
					if want, ok := oracle[addr]; ok {
						got, _, err := c.MaSU().ReadLine(addr)
						if err != nil || got != want {
							t.Fatalf("step %d: %#x diverged: %v", step, addr, err)
						}
					}
				case op < 85: // timed read through the controller
					addr := addrs[rng.Intn(len(addrs))]
					done := false
					c.ReadLine(addr, func(uint64) { done = true }, 0)
					eng.Run(0)
					if !done {
						t.Fatalf("step %d: read never completed", step)
					}
					if pending != 0 {
						// Run(0) drained everything; acceptances fired.
						t.Fatalf("step %d: pending %d after drain", step, pending)
					}
				default: // crash + recover at a random in-flight moment
					eng.RunUntil(eng.Now() + sim.Cycle(rng.Intn(3000)))
					if _, err := c.Crash(); err != nil {
						t.Fatalf("step %d: crash: %v", step, err)
					}
					mode := AnubisRecovery
					if rng.Intn(3) == 0 {
						mode = OsirisRecovery
					}
					if _, err := c.Recover(mode); err != nil {
						t.Fatalf("step %d: recover(%d): %v", step, mode, err)
					}
					// Un-accepted in-flight writes died with the power —
					// but the baseline may have functionally applied
					// them before acknowledging, so those lines carry no
					// expectation until the next accepted write.
					pending = 0
					for addr, n := range inflight {
						if n > 0 {
							delete(oracle, addr)
						}
						delete(inflight, addr)
					}
					// Every line with a settled expectation survived.
					for addr, want := range oracle {
						got, _, err := c.MaSU().ReadLine(addr)
						if err != nil || got != want {
							t.Fatalf("step %d: post-recovery %#x diverged: %v", step, addr, err)
						}
					}
					if _, err := c.MaSU().Audit(); err != nil {
						t.Fatalf("step %d: post-recovery audit: %v", step, err)
					}
				}
			}
			eng.Run(0)
			if _, err := c.MaSU().Audit(); err != nil {
				t.Fatalf("final audit: %v", err)
			}
			for addr, want := range oracle {
				got, _, err := c.MaSU().ReadLine(addr)
				if err != nil || got != want {
					t.Fatalf("final state %#x diverged: %v", addr, err)
				}
			}
		})
	}
}
