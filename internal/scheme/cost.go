package scheme

import (
	"dolos/internal/crypt"
	"dolos/internal/masu"
	"dolos/internal/sim"
)

// Timing constants shared by every scheme's cost table. MetaMissCycles
// is the NVM metadata-fetch penalty charged per metadata-cache miss;
// DrainDelayCycles is the WPQ rest window before the Ma-SU picks an
// entry up (what makes write coalescing effective for hot lines).
const (
	MetaMissCycles   sim.Cycle = 600
	DrainDelayCycles sim.Cycle = 400
)

// CostTable is the dense per-op latency model of one scheme's security
// pipeline: every cycle the controller charges for security work is a
// linear function of a masu.Cost under these coefficients. It is the
// single timing vocabulary shared by both execution modes — the
// functional engine and fast mode price identical Cost values through
// the same table, which is what keeps their schedules bit-identical.
//
// Tables come only from CostTableFor: a scheme missing from the
// registry has no latency model (controller.Config.Validate refuses it).
type CostTable struct {
	// XOR, AES and MAC are the Table 1 primitive latencies.
	XOR, AES, MAC sim.Cycle
	// MetaMiss is the NVM fetch charged per metadata-cache miss.
	MetaMiss sim.Cycle
	// Reencrypt is the per-line charge of a post-overflow page
	// re-encryption (decrypt + encrypt + MAC).
	Reencrypt sim.Cycle
	// WPQHit is the on-chip service latency of a WPQ read hit: the
	// tag-array lookup plus the one-cycle XOR decrypt.
	WPQHit sim.Cycle
	// DrainDelay is the WPQ rest window before a Ma-SU fetch.
	DrainDelay sim.Cycle
	// Insert is the Mi-SU critical-path insert latency (Dolos schemes;
	// zero elsewhere).
	Insert sim.Cycle
	// DeferredMAC is the post-commit MAC occupancy of the Post-WPQ
	// Mi-SU (zero elsewhere).
	DeferredMAC sim.Cycle
	// MiII is the Mi-SU engine's initiation interval; MaII the default
	// Ma-SU/security-unit pipeline interval (overridable by config).
	MiII, MaII sim.Cycle
}

// CostTableFor derives the latency table for a registered scheme from
// its pipeline. An ID outside the registry has no table: it panics.
func CostTableFor(id ID) CostTable {
	e := entries[id]
	t := CostTable{
		XOR:        crypt.XORLatency,
		AES:        crypt.AESLatency,
		MAC:        crypt.MACLatency,
		MetaMiss:   MetaMissCycles,
		Reencrypt:  2*crypt.AESLatency + crypt.MACLatency,
		WPQHit:     4 + crypt.XORLatency,
		DrainDelay: DrainDelayCycles,
		MiII:       crypt.MACLatency,
		MaII:       crypt.MACLatency,
	}
	if e.Pipeline.Insert == InsertDolosSplit {
		t.Insert = id.MiSUDesign().InsertLatency()
		if id == DolosPost {
			// The XOR-only insert path frees the engine immediately; the
			// deferred MAC occupies it after commit.
			t.MiII = crypt.XORLatency
			t.DeferredMAC = crypt.MACLatency
		}
	}
	return t
}

// DrainService prices a Ma-SU drain-path write (Figure 11): the WPQ
// XOR decrypt, pad generation, the serial MAC chain, metadata fetches
// that missed the on-chip caches, and any page re-encryption.
func (t CostTable) DrainService(c masu.Cost) sim.Cycle {
	return t.XOR + t.AES + t.writeTail(c)
}

// InsertService prices a pre-WPQ security pass (the baseline and
// related-work schemes): as DrainService minus the WPQ decrypt XOR —
// the write arrives in plaintext.
func (t CostTable) InsertService(c masu.Cost) sim.Cycle {
	return t.AES + t.writeTail(c)
}

func (t CostTable) writeTail(c masu.Cost) sim.Cycle {
	return sim.Cycle(c.SerialMACs)*t.MAC +
		sim.Cycle(c.CounterMisses+c.TreeMisses)*t.MetaMiss +
		sim.Cycle(c.ReencryptedLines)*t.Reencrypt
}

// ReadExtra prices a verified read's cycles beyond the NVM data fetch:
// the data-MAC verify and decrypt XOR, the serialized counter fetch +
// pad generation on a counter miss, and one fetch + MAC per tree-path
// miss.
func (t CostTable) ReadExtra(c masu.Cost) sim.Cycle {
	extra := t.MAC + t.XOR
	if c.CounterMisses > 0 {
		extra += t.MetaMiss + t.AES
	}
	extra += sim.Cycle(c.TreeMisses) * (t.MetaMiss + t.MAC)
	return extra
}
