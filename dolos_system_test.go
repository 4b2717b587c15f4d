package dolos

import (
	"strings"
	"testing"
)

func TestSystemFacade(t *testing.T) {
	tr, err := GenerateTrace("Ctree", WorkloadParams{
		Transactions: 30, Warmup: 20, TxSize: 256, Seed: 4, HeapSize: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SystemConfig{Scheme: DolosPartial, Tree: BMTEager, Layout: SmallAddressMap()}
	copy(cfg.AESKey[:], "facade-aes-key16")
	copy(cfg.MACKey[:], "facade-mac-key16")
	sys := NewSystem(cfg)
	res := sys.Run(tr)
	if res.Transactions < 30 || res.Cycles == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}

func TestCrashFacade(t *testing.T) {
	tr, err := GenerateTrace("Hashmap", WorkloadParams{
		Transactions: 20, Warmup: 10, TxSize: 256, Seed: 4, HeapSize: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SystemConfig{Scheme: DolosPost, Layout: SmallAddressMap()}
	copy(cfg.AESKey[:], "facade-aes-key16")
	copy(cfg.MACKey[:], "facade-mac-key16")
	d, err := NewCrashDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.RunAndCrash(tr, 40_000, AnubisRecovery)
	if err != nil {
		t.Fatalf("crash experiment: %v (%+v)", err, out)
	}
}

func TestAdversaryFacade(t *testing.T) {
	cfg := SystemConfig{Scheme: DolosPartial, Layout: SmallAddressMap()}
	copy(cfg.AESKey[:], "facade-aes-key16")
	copy(cfg.MACKey[:], "facade-mac-key16")
	sys := NewSystem(cfg)
	var p [64]byte
	p[0] = 1
	sys.Ctrl.MaSU().ProcessWrite(0x1000, p, -1)
	adv := NewAdversary(sys.Dev, 1)
	adv.FlipBit(0x1000, 0)
	if _, _, err := sys.Ctrl.MaSU().ReadLine(0x1000); err == nil {
		t.Fatal("facade adversary tamper undetected")
	}
}

func TestTraceSaveLoadFacade(t *testing.T) {
	tr, err := GenerateTrace("TxStream", WorkloadParams{Transactions: 10, Warmup: 5, TxSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/t.trace"
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(path)
	if err != nil || got.Transactions != tr.Transactions {
		t.Fatalf("trace facade round trip: %v", err)
	}
}

func TestAddressMaps(t *testing.T) {
	if DefaultAddressMap().DataSpan != 16<<30 || SmallAddressMap().DataSpan != 64<<20 {
		t.Fatal("address map facades wrong")
	}
}

// TestGenerateTraceRefusesHeapOverflow: a run that could exhaust the
// workload's persistent heap is an error, not a heap-exhausted panic
// part way through generation.
func TestGenerateTraceRefusesHeapOverflow(t *testing.T) {
	tr, err := GenerateTrace("Hashmap", WorkloadParams{Transactions: 20000, TxSize: 4096})
	if err == nil || tr != nil {
		t.Fatalf("GenerateTrace = %v, %v; want a heap error", tr, err)
	}
	if !strings.Contains(err.Error(), "persistent heap") {
		t.Errorf("error %q does not name the persistent heap", err)
	}
}
