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
	"dolos/internal/scheme"
	"dolos/internal/sim"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// goldenToCSHA256 pins, for every case of TestGoldenToC, the NVM image
// and the integrity tree's root (the lazy ToC's root version register,
// the eager BMT's root MAC) at three kinds of point: after a full run,
// after PersistAll, and after a crash and Anubis recovery. Each case
// also hashes the run's deterministic Result or Outcome fields. Work on
// how the host computes tree MACs, or on the front-end that issues the
// persists, must leave every constant as it is.
var goldenToCSHA256 = map[string]string{
	"Pre-WPQ-Secure/NStore:YCSB":         "d466830ec4cafe652e41d0c00d4ff051e682e8ec5020389fdac6dea8feb84f5e",
	"Pre-WPQ-Secure/NStore:YCSB/tiny":    "07ea54482829151bad772a71d85939973e3417dfce4a4a50a6791b2566e7e7e2",
	"Pre-WPQ-Secure/Hashmap":             "9fe9e5ba5dd886f53b1bf8675939526c8352c25ae82d5aa5a42e2cd0d9885ecc",
	"Pre-WPQ-Secure/Hashmap/tiny":        "a47248874d4db6f3190ee2882d4016ebaa76dc07baefb910ae171fe29094a45a",
	"Dolos-Full-WPQ/NStore:YCSB":         "86446624837c77ffd904d8e62464beda0c5e55f2dd51d305b84de45475e8150d",
	"Dolos-Full-WPQ/NStore:YCSB/tiny":    "540bde0698dc61b3397e0de3c2c103c623c9103a706859f23cf1bbb9d1b0431e",
	"Dolos-Full-WPQ/Hashmap":             "2fd809e3d93242628c57f85223784b8197cf8dde05aa9004a6711448d1e70eac",
	"Dolos-Full-WPQ/Hashmap/tiny":        "0b33b92ec33b7b2c1687daffc95f77c38a41d76e836749980881e53fd75370bf",
	"Dolos-Partial-WPQ/NStore:YCSB":      "a8a77fc0083980fe68a1adc0c1ead3ea4c7e2da0a489faf7e237accf1852696b",
	"Dolos-Partial-WPQ/NStore:YCSB/tiny": "1829bd7258c79140d62c853f94d172e0d82340f362dd1de44afd1ff11b215bcd",
	"Dolos-Partial-WPQ/Hashmap":          "a62aa043dfcabe0858bd9b04ea6435419dabfd23a5d494fd44e1461066bf23ab",
	"Dolos-Partial-WPQ/Hashmap/tiny":     "fac26c5f2033c3cb508834d3c99b58ffffca266a270f67cf2cc86a5e6d303c84",
	"Dolos-Post-WPQ/NStore:YCSB":         "2e815e97fcc32314a1fdc14ea69c6b6ef5fcd67f26090cb2900a2817aee7e0ea",
	"Dolos-Post-WPQ/NStore:YCSB/tiny":    "c82e677824b924e6895339af1ca5e7c3de5dd066d5c9ba0aba9cfe94dc06b5ae",
	"Dolos-Post-WPQ/Hashmap":             "c39333f9de404e374a821fd27cad106ceb194c92a6ab6dd578d1641927ca5c56",
	"Dolos-Post-WPQ/Hashmap/tiny":        "a63ce50c1bc3b059c8ae95636c0f0380a786fef46d7bafe2acc1ddb92fb17da2",
	"Phoenix/NStore:YCSB":                "a99330a6a1858225146d4ae90efbbd148dd7c35bba04afb646a8f2ee0548a020",
	"Phoenix/NStore:YCSB/tiny":           "6eee590dd335908bea8df1b09df220b298469884de0000607694e15f3d998b09",
	"Phoenix/Hashmap":                    "56db6fa7818df09963f21cbda9a5d2ad24310046596780e74d4aa81826fca0d8",
	"Phoenix/Hashmap/tiny":               "60bb6111c12d4ca0e1d8de0a29b321016b627efa4e6211ba8dceea8be78d7b0f",

	// Eager BMT.
	"NonSecure-ADR/NStore:YCSB/eager-BMT":          "21b4cd2007c54cbba738be7a5f2c4a1eda9d43f4b4e5c578926b8a2c63b9b306",
	"NonSecure-ADR/NStore:YCSB/eager-BMT/tiny":     "005dd71370147baaf78e5aa6c3d4e343080d36332fb949a8707329f66da5f0ef",
	"NonSecure-ADR/Hashmap/eager-BMT":              "33a152dcdf34b11b7c16902bdc346732e1c31b96faf2695c7df9e16d43866d2b",
	"NonSecure-ADR/Hashmap/eager-BMT/tiny":         "6b329b913e076b9c6e5ee793f0d6067f069228aa61cb78ff10f29d3fe33fabfb",
	"Pre-WPQ-Secure/NStore:YCSB/eager-BMT":         "0e51f42f9cfefc3f63cb84dc0904ac13af648b8d8bf37c9285d02a9759e0a302",
	"Pre-WPQ-Secure/NStore:YCSB/eager-BMT/tiny":    "c854ed278ff591918c44bb2219a93a1657c1abef49dcb741ffe1ba31b9ceca63",
	"Pre-WPQ-Secure/Hashmap/eager-BMT":             "85297ff71f29751b4545782ba39a921828a889d15dbab224dc995ff375557ce7",
	"Pre-WPQ-Secure/Hashmap/eager-BMT/tiny":        "c9e5599754aff5c25bf519a272815abea180fb059679706a69befbb81242ea1e",
	"Dolos-Full-WPQ/NStore:YCSB/eager-BMT":         "091578b92623f2cf3056093f1afde0ae070af0921236cc28366dd9c9952e3ec0",
	"Dolos-Full-WPQ/NStore:YCSB/eager-BMT/tiny":    "d179dd545b9f36dcae7e1198aa0a0824335f35e969fb1d3552cf2830b6e87dae",
	"Dolos-Full-WPQ/Hashmap/eager-BMT":             "a65b22589d54c7c8c12b08330b4c210521f2f98a87465bfc70dd7ef289ee5bd7",
	"Dolos-Full-WPQ/Hashmap/eager-BMT/tiny":        "e186ba50845e0087bdcf4f963bb041ec145a0e3e6e791c7bd1372b76bc4495ca",
	"Dolos-Partial-WPQ/NStore:YCSB/eager-BMT":      "706be8fb4fb345f17e888aa23ac562f81ba49b0c7b7f46ce371f9b2a6ec98b2f",
	"Dolos-Partial-WPQ/NStore:YCSB/eager-BMT/tiny": "0e1523a8bb1bca4fc2d89790fb8927728905e74b9422540100dd798c18e84059",
	"Dolos-Partial-WPQ/Hashmap/eager-BMT":          "1a30de3e08a8fc264b51865a94e11bd510a62c80af79ed8c2bcc72272b46e967",
	"Dolos-Partial-WPQ/Hashmap/eager-BMT/tiny":     "6102a33ef090289a431cc0eea5b3105df0f68814f7b64c6f7ec51f613973ea41",
	"Dolos-Post-WPQ/NStore:YCSB/eager-BMT":         "9ed178a74cc1c60a0cc79ae4a551ac5c26b516f36a0a244c440c1fab839f29e1",
	"Dolos-Post-WPQ/NStore:YCSB/eager-BMT/tiny":    "f0b72d6fc48783f046e329cc62dd2aaf0d7858c2a9d413a5ca86455aaf6f0368",
	"Dolos-Post-WPQ/Hashmap/eager-BMT":             "414be4c0da7910aad534ba3eaa7945354a21872aac5ad28b069a7746cebed3fb",
	"Dolos-Post-WPQ/Hashmap/eager-BMT/tiny":        "ad8371aedac3b436239e97deeebf50e1ef3ea2cf1d3f95544b0383792b53ec85",
	"eADR-Secure/NStore:YCSB/eager-BMT":            "90d615a8bfebecdef10a985d7c54a9d4b16890ca04e28b99522deb964650c22e",
	"eADR-Secure/NStore:YCSB/eager-BMT/tiny":       "c0660c16d31f8f72fd301157ccd116130de5f6736dc5b99700f470827784188a",
	"eADR-Secure/Hashmap/eager-BMT":                "670b7ab321daf00bd2ef9fbb5c1db2410a30f8f1059699a66b77659ebd5bee1f",
	"eADR-Secure/Hashmap/eager-BMT/tiny":           "644e6d2edfb41aa1c661ea67f54088dd4819e668a3372df921844710f42c2206",
	"Triad-NVM/NStore:YCSB/eager-BMT":              "020d08432364f86e6d81e7d95f8608ad3849b7bf70b8006377ff5388f69d9e02",
	"Triad-NVM/NStore:YCSB/eager-BMT/tiny":         "95809fb7c19ed3e807f9ce60dce61851f54bbcafaf22e270bf5e792400f5492d",
	"Triad-NVM/Hashmap/eager-BMT":                  "a183fb6c15210e2089c653c6151ac941d46d0ed7f7b74f0db36a6ee48ea21bf4",
	"Triad-NVM/Hashmap/eager-BMT/tiny":             "1e6b7d01e3fb940a9635283e813fea0cf2d5e44a92971a4fa7a53af164e480e7",
	"SuperMem/NStore:YCSB/eager-BMT":               "8ff47aa172e676575e4a304135385bfac830ab9be245e2a3df9a895faac34a08",
	"SuperMem/NStore:YCSB/eager-BMT/tiny":          "3d39ad0cbeb32ee7d4c3978a7bcd662f83d2f99f4e3f146a09d77a45465f3d06",
	"SuperMem/Hashmap/eager-BMT":                   "8e4e4870438eb41dcc68db79f2f15ce1cae4a7043574aaa7f6d5efd30db25eb4",
	"SuperMem/Hashmap/eager-BMT/tiny":              "06153b04077b8efe2ab0a99ea00e7ce2a18255280385ee1f8b6cdc8c1234d5e3",
	"STUM/NStore:YCSB/eager-BMT":                   "aeedc6ff4571ad2f22f22f92f2c8eb41d5f35942d9d15a390949c8eb9a64eaa4",
	"STUM/NStore:YCSB/eager-BMT/tiny":              "edcc89c1eb55a47393cf5a51092e6c6e26e0b9c4f17929678beae68f8ef58173",
	"STUM/Hashmap/eager-BMT":                       "8fe0ac73a48dd048743f0fe12f11e825f81df19af13f00a813914d008ebed9e0",
	"STUM/Hashmap/eager-BMT/tiny":                  "9da4fe98bb523c29c54a1b50e284f8ce6034b56f4912387d588a4a06fe144665",
}

// goldenToCCrashCycles are the crash points: early, mid-run and late.
var goldenToCCrashCycles = []sim.Cycle{30_000, 300_000, 700_000}

type goldenToCCase struct {
	name   string
	scheme controller.Scheme
	tree   masu.TreeKind
	tiny   bool // tiny metadata caches, so dirty tree nodes are evicted
	tr     *trace.Trace
}

// goldenToCCases lists the lazy-ToC cases, then the eager-BMT cases of
// every registry scheme that simulates the BMT.
func goldenToCCases() []goldenToCCase {
	traces := []*trace.Trace{
		whisper.YCSB{}.Generate(whisper.Params{Transactions: 200, TxSize: 512, Seed: 5, ReadPercent: 95, HeapSize: 16 << 20}),
		whisper.Hashmap{}.Generate(whisper.Params{Transactions: 100, TxSize: 512, Seed: 5, HeapSize: 16 << 20}),
	}
	var cs []goldenToCCase
	add := func(s controller.Scheme, tree masu.TreeKind, label string) {
		for _, tr := range traces {
			for _, tiny := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s%s", s, tr.Name, label)
				if tiny {
					name += "/tiny"
				}
				cs = append(cs, goldenToCCase{name: name, scheme: s, tree: tree, tiny: tiny, tr: tr})
			}
		}
	}
	for _, s := range []controller.Scheme{
		controller.PreWPQSecure, controller.DolosFull, controller.DolosPartial,
		controller.DolosPost, controller.Phoenix,
	} {
		add(s, masu.ToCLazy, "")
	}
	for _, e := range scheme.All() {
		cfg := controller.Config{Scheme: e.ID, Tree: masu.BMTEager}
		if cfg.EffectiveTree() == masu.BMTEager {
			add(e.ID, masu.BMTEager, "/"+masu.BMTEager.String())
		}
	}
	return cs
}

func (c goldenToCCase) config() controller.Config {
	cfg := testConfig(c.scheme)
	cfg.Tree = c.tree
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

// state hashes every NVM page in address order and the integrity
// tree's root: the ToC root version, or the BMT root MAC.
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
	if ma := sys.Ctrl.MaSU(); ma.ToC() != nil {
		g.put(ma.ToC().RootVersion())
	} else {
		root := ma.BMT().Root()
		g.h.Write(root[:])
	}
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
		uint64(o.LinesAudited))
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestGoldenToC pins the integrity backends' persistent state, bit for
// bit, over two workloads and two metadata-cache sizes: the lazy ToC
// under five schemes and the eager BMT under every registry scheme
// that simulates it. The crash outcomes it hashes count the acceptances
// the front-end reports, so their order and number are pinned too.
func TestGoldenToC(t *testing.T) {
	cases := goldenToCCases()
	got := map[string]string{}
	for _, c := range cases {
		g := goldenHasher{sha256.New()}
		d := mustDriver(t, c.config())
		g.result(d.System().Run(c.tr))
		g.state(d.System())
		if ma := d.System().Ctrl.MaSU(); c.tree == masu.ToCLazy {
			ma.ToC().PersistAll()
		} else {
			ma.BMT().PersistAll()
		}
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
