package crash

import (
	"errors"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/whisper"
)

// TestNewDriverRejectsNonFunctional: the crash driver exists to prove
// real MACs survive power loss, so a config that asks for the
// latency-only provider is a caller bug — the constructor refuses it
// with the typed sentinel (masu.ErrFastMode) instead of silently
// normalizing the config.
func TestNewDriverRejectsNonFunctional(t *testing.T) {
	base := controller.Config{Scheme: controller.DolosPartial, Tree: masu.BMTEager}
	copy(base.AESKey[:], "crash-aes-key-16")
	copy(base.MACKey[:], "crash-mac-key-16")

	fast := base
	fast.FastMode = true
	if _, err := NewDriver(fast); !errors.Is(err, masu.ErrFastMode) {
		t.Errorf("NewDriver(FastMode): err = %v, want ErrFastMode", err)
	}

	if _, err := NewMachineDriver(cpu.MachineConfig{Ctrl: fast, Window: 2}, coreSpecs(t, 2, "Hashmap")); !errors.Is(err, masu.ErrFastMode) {
		t.Errorf("NewMachineDriver(FastMode): err = %v, want ErrFastMode", err)
	}

	// The serial functional config stays fully supported.
	d := mustDriver(t, base)
	w, err := whisper.ByName("Hashmap")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(whisper.Params{Transactions: 30, TxSize: 1024, Seed: 1})
	out, err := d.RunAndCrash(tr, 200000, controller.AnubisRecovery)
	if err != nil {
		t.Fatalf("crash experiment on functional driver: %v", err)
	}
	if out.LinesAudited == 0 {
		t.Fatal("functional crash run audited no lines")
	}
}

// TestCrashRefusedOnFastSystem: outside the driver, the controller API
// itself refuses to crash or recover a latency-only machine with
// masu.ErrFastMode, so the misuse is diagnosable.
func TestCrashRefusedOnFastSystem(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		cfg := controller.Config{Scheme: controller.DolosPartial, Tree: masu.BMTEager, FastMode: true}
		copy(cfg.AESKey[:], "crash-aes-key-16")
		copy(cfg.MACKey[:], "crash-mac-key-16")
		sys := cpu.NewSystem(cfg)
		if _, err := sys.Ctrl.Crash(); !errors.Is(err, masu.ErrFastMode) {
			t.Errorf("Crash on fast system: err = %v, want ErrFastMode", err)
		}
		if _, err := sys.Ctrl.Recover(controller.AnubisRecovery); !errors.Is(err, masu.ErrFastMode) {
			t.Errorf("Recover on fast system: err = %v, want ErrFastMode", err)
		}
	})
}
