package crash

// Crash x attack matrix: after every scheme's mid-run power failure, an
// adversary tampers with a different NVM region; recovery (or the
// post-recovery scrub) must reject every variant.

import (
	"testing"

	"dolos/internal/attack"
	"dolos/internal/controller"
	"dolos/internal/layout"
	"dolos/internal/sim"
	"dolos/internal/whisper"
)

func TestCrashThenAttackMatrix(t *testing.T) {
	tr := whisper.Hashmap{}.Generate(whisper.Params{
		Transactions: 25, Warmup: 15, TxSize: 512, Seed: 31, HeapSize: 16 << 20,
	})
	lay := layout.Small()
	kinds := []struct {
		name   string
		tamper func(adv *attack.Adversary)
	}{
		{"data-spoof", func(a *attack.Adversary) { a.Spoof(0x1000, 64) }},
		{"data-bitflip", func(a *attack.Adversary) { a.FlipBit(0x1040, 2) }},
		{"data-relocate", func(a *attack.Adversary) { a.Relocate(0x1000, 0x1040) }},
		{"mac-region", func(a *attack.Adversary) { a.FlipBit(lay.LineMACAddr(0x1000), 1) }},
		{"counter-region", func(a *attack.Adversary) { a.FlipBit(lay.CounterBase+64+3, 4) }},
	}

	// Two Dolos designs plus every related-work scheme: the adversary
	// must be rejected (or neutralized) regardless of pipeline.
	schemes := append([]controller.Scheme{controller.DolosPartial, controller.PreWPQSecure},
		relatedSchemes()...)
	for _, scheme := range schemes {
		for _, k := range kinds {
			scheme, k := scheme, k
			t.Run(scheme.String()+"/"+k.name, func(t *testing.T) {
				d := mustDriver(t, testConfig(scheme))
				sys := d.System()
				if err := sys.Start(tr); err != nil {
					t.Fatal(err)
				}
				sys.Eng.RunUntil(sim.Cycle(120_000))
				if _, err := sys.Ctrl.Crash(); err != nil {
					t.Fatal(err)
				}
				k.tamper(attack.New(sys.Dev, 5))
				_, recErr := sys.Ctrl.Recover(controller.AnubisRecovery)
				if recErr != nil {
					return // detected at recovery: pass
				}
				// Recovery may instead NEUTRALIZE the tamper: a counter
				// block that was dirty at the crash is restored from the
				// shadow region and re-persisted over the attacker's
				// bytes. Then the attack must have achieved nothing:
				// the scrub passes AND every accepted write still reads
				// back with its correct value.
				if _, err := sys.Ctrl.MaSU().Audit(); err != nil {
					return // detected at scrub: pass
				}
				var out Outcome
				if err := d.auditDurability(&out); err != nil {
					t.Fatalf("tampering silently corrupted accepted data: %v", err)
				}
			})
		}
	}
}

func TestRecoveryCycleEstimate(t *testing.T) {
	d := mustDriver(t, testConfig(controller.DolosPartial))
	tr := whisper.Ctree{}.Generate(whisper.Params{
		Transactions: 20, Warmup: 10, TxSize: 512, Seed: 3, HeapSize: 16 << 20,
	})
	out, err := d.RunAndCrash(tr, 60_000, controller.AnubisRecovery)
	if err != nil {
		t.Fatal(err)
	}
	est := out.RecoveryCycleEstimate()
	// 14 slot records + 2 MAC blocks read, 14 pad pairs, live drains.
	min := uint64(14+2)*600 + 14*80
	if est < min {
		t.Fatalf("estimate %d below floor %d", est, min)
	}
	if est > 200_000 {
		t.Fatalf("estimate %d implausibly large", est)
	}
}
