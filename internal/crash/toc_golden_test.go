package crash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/sim"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// goldenToCSHA256 pins, for every case of TestGoldenToC, the NVM image
// and the ToC root version register of the lazy-ToC backend at three
// kinds of point: after a full run, after PersistAll, and after a crash
// and Anubis recovery. Each case also hashes the run's deterministic
// Result or Outcome fields. Work on how the host computes ToC MACs must
// leave every constant as it is.
var goldenToCSHA256 = map[string]string{
	"Pre-WPQ-Secure/NStore:YCSB":         "69d653b50f3ba0ac9b295748a755cc52dc342d8d350c08d76d92547ba46aea8a",
	"Pre-WPQ-Secure/NStore:YCSB/tiny":    "3e75a62c8722d1f248ad5f1fdf681af099aa24658c4f3fe617b3706bff995af8",
	"Pre-WPQ-Secure/Hashmap":             "d37fafe8831a19cfc80326e899b308984984ff75eb87a71d74f5627e8fdc19b1",
	"Pre-WPQ-Secure/Hashmap/tiny":        "b6d2b5853db87cf638b6314ba7718dcd7fd81c76acc97ba1eb5a75289a0cdcbb",
	"Dolos-Full-WPQ/NStore:YCSB":         "fe8128d4bc544426d497f9bab2b639a330c51509504153f1eed743b230e5ab4e",
	"Dolos-Full-WPQ/NStore:YCSB/tiny":    "bbd098ba84568fddd0e9d5098178483dd187516dd4e58f8746776e2098b83a42",
	"Dolos-Full-WPQ/Hashmap":             "a5bd5593cb0c7d91285c8419313b6e3eac1505de590848661cc563bf2fd521d2",
	"Dolos-Full-WPQ/Hashmap/tiny":        "decb48a0f118910dabee48ed788c9eb8fc0291c520b386a6992a69dcd59e6a3e",
	"Dolos-Partial-WPQ/NStore:YCSB":      "b5ca60683e3fbf71ad060b7adbcd2ec7898cf45efb49fc82bc0908c52fbf8466",
	"Dolos-Partial-WPQ/NStore:YCSB/tiny": "7babae99cfc5ffd8d412cb70c2a4bede218548afd7baf2a08d0a4547e5483b14",
	"Dolos-Partial-WPQ/Hashmap":          "5b9446a475f29390913e04b4d60a9b2d115cd6671c321b0bdfa1d4208810f3a8",
	"Dolos-Partial-WPQ/Hashmap/tiny":     "66c32d0f5f49e22c48703db565ecce449d72fb5695b975dd3453d1666ecb9cdc",
	"Dolos-Post-WPQ/NStore:YCSB":         "affba0d7788e12c766791136ce1df3a975ebc5111d999379e9a9c32853800029",
	"Dolos-Post-WPQ/NStore:YCSB/tiny":    "c865114e5c37a163e16460c53412d546baa696ac898799a5fd2fa0c0e0c3021f",
	"Dolos-Post-WPQ/Hashmap":             "e7d895df95b87a68346f4dfb4d2f8f209b70d9bf3e0a7b804742accb20cf186f",
	"Dolos-Post-WPQ/Hashmap/tiny":        "3d2daf84d21fde409fd9ba984cd5dc37acf20df1303343674a9b63751f5133a3",
	"Phoenix/NStore:YCSB":                "bdaa4b70c9722e4bf7586a6a563f36c450df695541773748bc195dbe5f8fa9f7",
	"Phoenix/NStore:YCSB/tiny":           "cbf8b50f07de947931d4e914f155618cc44d94c8453c3aa4c4f3d4d4d7e02578",
	"Phoenix/Hashmap":                    "7c181343e54e8e1ddc91bda67280b7651a9f98421a3fbb471dd77a22ad5b8144",
	"Phoenix/Hashmap/tiny":               "521f3beb62b5c7c77369cc22f163bb56a2481a13d1098a9dfc09e3fd3f30c0c5",
}

// goldenToCCrashCycles are the crash points: early, mid-run and late.
var goldenToCCrashCycles = []sim.Cycle{30_000, 300_000, 700_000}

type goldenToCCase struct {
	name   string
	scheme controller.Scheme
	tiny   bool // tiny metadata caches, so dirty tree nodes are evicted
	tr     *trace.Trace
}

func goldenToCCases() []goldenToCCase {
	traces := []*trace.Trace{
		whisper.YCSB{}.Generate(whisper.Params{Transactions: 200, TxSize: 512, Seed: 5, ReadPercent: 95, HeapSize: 16 << 20}),
		whisper.Hashmap{}.Generate(whisper.Params{Transactions: 100, TxSize: 512, Seed: 5, HeapSize: 16 << 20}),
	}
	var cs []goldenToCCase
	for _, s := range []controller.Scheme{
		controller.PreWPQSecure, controller.DolosFull, controller.DolosPartial,
		controller.DolosPost, controller.Phoenix,
	} {
		for _, tr := range traces {
			for _, tiny := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s", s, tr.Name)
				if tiny {
					name += "/tiny"
				}
				cs = append(cs, goldenToCCase{name: name, scheme: s, tiny: tiny, tr: tr})
			}
		}
	}
	return cs
}

func (c goldenToCCase) config() controller.Config {
	cfg := testConfig(c.scheme)
	cfg.Tree = masu.ToCLazy
	if c.tiny {
		cfg.CounterCacheBytes = 1 << 10
		cfg.MTCacheBytes = 2 << 10
	}
	return cfg
}

type goldenHasher struct{ h hash.Hash }

func (g goldenHasher) put(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		g.h.Write(b[:])
	}
}

func (g goldenHasher) putFloat(fs ...float64) {
	for _, f := range fs {
		g.put(math.Float64bits(f))
	}
}

// state hashes every NVM page in address order and the ToC root version.
func (g goldenHasher) state(sys *cpu.System) {
	snap := sys.Dev.Snapshot()
	ids := make([]uint64, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	g.put(uint64(len(ids)))
	for _, id := range ids {
		page := snap[id]
		g.put(id)
		g.h.Write(page[:nvm.PageSize])
	}
	g.put(sys.Ctrl.MaSU().ToC().RootVersion())
}

func (g goldenHasher) result(r cpu.Result) {
	g.put(uint64(r.Cycles), uint64(r.Transactions), uint64(r.Ops), uint64(r.FenceStalls),
		r.WriteRequests, r.RetryEvents, r.WPQReadHits, r.MemReads, r.RecoveryCycles)
	g.putFloat(r.CyclesPerTx, r.CPI, r.RetryPerKWR, r.MeanInterarrival,
		r.MedianTxCycles, r.P99TxCycles, r.WPQMeanOccupancy)
}

func (g goldenHasher) outcome(o Outcome) {
	d, m := o.Crash.Drain, o.Recover.MaSU
	g.put(uint64(o.CrashCycle), uint64(o.AcceptedWrites), uint64(o.AcceptedLines),
		uint64(o.Crash.LiveEntries), uint64(o.Crash.BytesFlushed),
		uint64(d.EntriesWritten), uint64(d.MACBlocksWritten), uint64(d.DeferredMACs),
		uint64(o.Recover.WPQReplayed), o.Recover.RecoveryCycles,
		boolWord(m.RedoReplayed), uint64(m.ShadowRestored), uint64(m.LinesVerified), uint64(m.OsirisProbes),
		uint64(o.LinesAudited), boolWord(o.TxRolledBack))
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestGoldenToC pins the lazy-ToC backend's persistent state, bit for
// bit, across five schemes, two workloads and two metadata-cache sizes.
func TestGoldenToC(t *testing.T) {
	cases := goldenToCCases()
	got := map[string]string{}
	for _, c := range cases {
		g := goldenHasher{sha256.New()}
		d := mustDriver(t, c.config())
		g.result(d.System().Run(c.tr))
		g.state(d.System())
		d.System().Ctrl.MaSU().ToC().PersistAll()
		g.state(d.System())
		for _, at := range goldenToCCrashCycles {
			d := mustDriver(t, c.config())
			out, err := d.RunAndCrash(c.tr, at, controller.AnubisRecovery)
			if err != nil {
				t.Fatalf("%s: crash at %d: %v", c.name, at, err)
			}
			g.outcome(out)
			g.state(d.System())
		}
		got[c.name] = hex.EncodeToString(g.h.Sum(nil))
	}
	for _, c := range cases {
		if want := goldenToCSHA256[c.name]; got[c.name] != want {
			t.Errorf("%s: sha256 %s, pinned %s", c.name, got[c.name], want)
		}
	}
}
