package scheme

import (
	"testing"

	"dolos/internal/crypt"
	"dolos/internal/masu"
	"dolos/internal/sim"
)

// TestCostTableMatchesEngineConstants pins every registered scheme's
// cost table against the functional engine's latency constants and the
// controller's historical formulas, across a grid of cost shapes. The
// controller prices all execution modes through these tables, so a
// drifting coefficient here would silently skew every mode at once.
func TestCostTableMatchesEngineConstants(t *testing.T) {
	costs := []masu.Cost{
		{},
		{SerialMACs: 10},
		{SerialMACs: 4, CounterMisses: 1},
		{SerialMACs: 1, TreeMisses: 3},
		{SerialMACs: 10, CounterMisses: 2, TreeMisses: 5, ReencryptedLines: 63},
		{SerialMACs: 2, CounterMisses: 1, TreeMisses: 1, ReencryptedLines: 1},
	}
	for _, e := range All() {
		tab := CostTableFor(e.ID)
		if tab.XOR != crypt.XORLatency || tab.AES != crypt.AESLatency || tab.MAC != crypt.MACLatency {
			t.Fatalf("%s: primitive latencies diverge from crypt constants: %+v", e.Name, tab)
		}
		if tab.MetaMiss != 600 {
			t.Fatalf("%s: MetaMiss = %d, want the 600-cycle NVM metadata fetch", e.Name, tab.MetaMiss)
		}
		if tab.DrainDelay != 400 {
			t.Fatalf("%s: DrainDelay = %d, want 400", e.Name, tab.DrainDelay)
		}
		if tab.WPQHit != 4+crypt.XORLatency {
			t.Fatalf("%s: WPQHit = %d, want %d", e.Name, tab.WPQHit, 4+crypt.XORLatency)
		}
		for _, c := range costs {
			tail := sim.Cycle(c.SerialMACs)*crypt.MACLatency +
				sim.Cycle(c.CounterMisses+c.TreeMisses)*600 +
				sim.Cycle(c.ReencryptedLines)*(2*crypt.AESLatency+crypt.MACLatency)
			if got, want := tab.DrainService(c), crypt.XORLatency+crypt.AESLatency+tail; got != want {
				t.Fatalf("%s: DrainService(%+v) = %d, want %d", e.Name, c, got, want)
			}
			if got, want := tab.InsertService(c), crypt.AESLatency+tail; got != want {
				t.Fatalf("%s: InsertService(%+v) = %d, want %d", e.Name, c, got, want)
			}
			wantRead := crypt.MACLatency + crypt.XORLatency
			if c.CounterMisses > 0 {
				wantRead += 600 + crypt.AESLatency
			}
			wantRead += sim.Cycle(c.TreeMisses) * (600 + crypt.MACLatency)
			if got := tab.ReadExtra(c); got != wantRead {
				t.Fatalf("%s: ReadExtra(%+v) = %d, want %d", e.Name, c, got, wantRead)
			}
		}
		// Insert-path coefficients are scheme-shaped.
		switch e.Pipeline.Insert {
		case InsertDolosSplit:
			if tab.Insert != e.ID.MiSUDesign().InsertLatency() {
				t.Fatalf("%s: Insert = %d, want the Mi-SU design's %d", e.Name, tab.Insert, e.ID.MiSUDesign().InsertLatency())
			}
			wantII := sim.Cycle(crypt.MACLatency)
			wantDef := sim.Cycle(0)
			if e.ID == DolosPost {
				wantII = crypt.XORLatency
				wantDef = crypt.MACLatency
			}
			if tab.MiII != wantII || tab.DeferredMAC != wantDef {
				t.Fatalf("%s: MiII/DeferredMAC = %d/%d, want %d/%d", e.Name, tab.MiII, tab.DeferredMAC, wantII, wantDef)
			}
		default:
			if tab.Insert != 0 || tab.DeferredMAC != 0 {
				t.Fatalf("%s: non-Dolos scheme has Mi-SU latencies: %+v", e.Name, tab)
			}
		}
	}
}

// TestCostTableUnknownSchemeFails pins the fail-loudly contract: an ID
// outside the registry has no latency model, so asking for its table
// panics instead of returning a default one. Configs reach the table
// only through controller.Config.Validate, which refuses such an ID.
func TestCostTableUnknownSchemeFails(t *testing.T) {
	for _, id := range []ID{ID(999), ID(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CostTableFor(%d) returned a table; want a panic", int(id))
				}
			}()
			CostTableFor(id)
		}()
	}
}
