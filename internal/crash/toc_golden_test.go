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

	// Eager BMT.
	"NonSecure-ADR/NStore:YCSB/eager-BMT":          "97066e97f6947262dd9b0dae01c5ae819c5b5cd4dc5b858d75c4b52db69aa177",
	"NonSecure-ADR/NStore:YCSB/eager-BMT/tiny":     "80aca93d9af16433cec7cd909ac73c2d183a466d32be3ff36b019849d364cf8d",
	"NonSecure-ADR/Hashmap/eager-BMT":              "9c886e553ec0ec5f6b6e9af01477e1638043b7ba3446b36e0330b131de77b956",
	"NonSecure-ADR/Hashmap/eager-BMT/tiny":         "b0c79ceddc1b3bc896c07e246f1886b15c78c3d76c6616ebb4fafe48257adb82",
	"Pre-WPQ-Secure/NStore:YCSB/eager-BMT":         "7f1dc0c590e803ebac3f4f1fb05393cd00b560f447cfde65fb32775ab015b9db",
	"Pre-WPQ-Secure/NStore:YCSB/eager-BMT/tiny":    "ecebe81268cf75bb2173258947da957cdc864db6b50c20cd5ce8a190c127f922",
	"Pre-WPQ-Secure/Hashmap/eager-BMT":             "090d3f83fb36480661be3983b711564f8e58bcdfcea5f35d46633c21c3bb7a83",
	"Pre-WPQ-Secure/Hashmap/eager-BMT/tiny":        "116f80f31d117db4c640d39ca2ade2d97781753fec6182b5c85b4fc993c7f416",
	"Dolos-Full-WPQ/NStore:YCSB/eager-BMT":         "0145d9d9591d07caca17c7e3e6f42ea5673e7797a2abce20cbeb768e080aa17c",
	"Dolos-Full-WPQ/NStore:YCSB/eager-BMT/tiny":    "ec908c5dc867581de5a05fe2ad4abd8fbbeacdb172471a3dcdde7ca5f3487c63",
	"Dolos-Full-WPQ/Hashmap/eager-BMT":             "ebcc9d5af43a87b35e271d80a35437fba0bf569278b98b021d0df1332b487594",
	"Dolos-Full-WPQ/Hashmap/eager-BMT/tiny":        "8fe6573746cf3afecd19b1ca9b14a8a2b9155eae68be75364a61576d66984be1",
	"Dolos-Partial-WPQ/NStore:YCSB/eager-BMT":      "a0b728f64b2aff97051cb9e7dfe26d86dc21294d8323320a0268d3b468353cbc",
	"Dolos-Partial-WPQ/NStore:YCSB/eager-BMT/tiny": "940a03d7b4885f8bba9a4d1ef67adff4c46865455012b8c21d8e2e376ef40119",
	"Dolos-Partial-WPQ/Hashmap/eager-BMT":          "8fb3832ab74fe46953469c2c6dfd1a1597dc16c45dc356e0d589be8526682e04",
	"Dolos-Partial-WPQ/Hashmap/eager-BMT/tiny":     "0c1800f470d90ca3304a2b2f3a399e462d9b8743b71a7bf7add00b8cf41ab743",
	"Dolos-Post-WPQ/NStore:YCSB/eager-BMT":         "1ef6cd0503b5cfe16e7612ad2fa54e926c1223ea8b74eee65c39449635ae8782",
	"Dolos-Post-WPQ/NStore:YCSB/eager-BMT/tiny":    "5603e4db6f3b210fbbb655bf850e1b621351f9c5080072fb8f668b2147a92748",
	"Dolos-Post-WPQ/Hashmap/eager-BMT":             "6f3d687d88b1cf5eeff37295b89c782a12437f47039414631310008e60c6cd57",
	"Dolos-Post-WPQ/Hashmap/eager-BMT/tiny":        "bade9aa05c3148d44bf7c987898e1cba8613f70339c30c6b6929cf7e1d59d0d3",
	"eADR-Secure/NStore:YCSB/eager-BMT":            "8666941eb4e9f044c2ad225b2b24e372a17039c531e45d130f74812e31e76029",
	"eADR-Secure/NStore:YCSB/eager-BMT/tiny":       "f0f42c25635c0538f2b1aeb3d2e28c874b0e98014618915ae105e9b8a925ec42",
	"eADR-Secure/Hashmap/eager-BMT":                "ff79fb1eb934c58ff72a9f69603bc1895754a949bef77e5191dcd339dc739104",
	"eADR-Secure/Hashmap/eager-BMT/tiny":           "d21a2ff8401e8b3724b5dc2a7b6e916c279a62bb14e99c5c0787f89e899b605b",
	"Triad-NVM/NStore:YCSB/eager-BMT":              "649c0063dc70598a4a5948e729f8b1a0a39bd422bb0e19a87defac48319f6127",
	"Triad-NVM/NStore:YCSB/eager-BMT/tiny":         "619e6d822777736fdd60b73494ff6377f8179b6fb51859e0a94d0ac89841e0b7",
	"Triad-NVM/Hashmap/eager-BMT":                  "a2876f3c1bb19962593b679a4e24771a2b384376e9d73e29a75f0fad980f60e4",
	"Triad-NVM/Hashmap/eager-BMT/tiny":             "979234a92f36b3f660e991a8ead990c30e1cbafd1f0f6ea0ab17865e3b26d819",
	"SuperMem/NStore:YCSB/eager-BMT":               "ab87d03cf8de68e8f86e7ed41f6bb15b1f74d127ab69e042bf957ecc02b949ee",
	"SuperMem/NStore:YCSB/eager-BMT/tiny":          "65fdc9572ce87b395c50cd4b3a8b5ff3e1d0c81661e51f08accfcb78f4f18495",
	"SuperMem/Hashmap/eager-BMT":                   "61a77971f810e55d925e69d931c318cabedd7d5dfd995f60944602caead79dbb",
	"SuperMem/Hashmap/eager-BMT/tiny":              "11d020060461d862aa885650491ff8daba8a760e7031c2dd12db3f9592b659e4",
	"STUM/NStore:YCSB/eager-BMT":                   "a16a7492e7bfb0eaacc986017886e1a0c079a8c6f791d089182a297dfab6f9de",
	"STUM/NStore:YCSB/eager-BMT/tiny":              "579f2be78264d487de677364255c1c09d39eb7a84d192e12d527446795b262f9",
	"STUM/Hashmap/eager-BMT":                       "f4a6dcd726e1474f7f36218fe14c04e6e7c3f00ea474ce0643515af00093c6c9",
	"STUM/Hashmap/eager-BMT/tiny":                  "46ff973822adf6e46f9709a3b7bfad577c1060b650c85ff4b436c306f98536fe",
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
// every crash-safe registry scheme that simulates the BMT.
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
		if e.Caps.CrashSafe && cfg.EffectiveTree() == masu.BMTEager {
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
		uint64(o.LinesAudited), boolWord(o.TxRolledBack))
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestGoldenToC pins the integrity backends' persistent state, bit for
// bit, over two workloads and two metadata-cache sizes: the lazy ToC
// under five schemes and the eager BMT under every crash-safe scheme
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
