package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"dolos/internal/cliutil"
	"dolos/internal/controller"
	"dolos/internal/masu"
	"dolos/internal/scheme"
	"dolos/internal/whisper"
)

// goldenRecordTxns and goldenRecordSeed size every golden cell but
// those of the long axis (txns200Cells), which run goldenLongTxns.
const (
	goldenRecordTxns = 50
	goldenLongTxns   = 200
	goldenRecordSeed = 1
)

// goldenCell is one pinned run: a workload under one Spec, over txns
// measured transactions.
type goldenCell struct {
	name     string
	workload string
	spec     Spec
	txns     int
}

// goldenCells enumerates every registry scheme over every ByName
// workload on the eager BMT and the lazy ToC — a scheme that pins its
// backend yields one cell, named by the tree it simulates — followed by
// the front-end axes: OoO windows 0, 1 and 2 and 2 and 4 contending
// cores, and the 200-transaction axis (txns200Cells).
func goldenCells() []goldenCell {
	workloads := append(whisper.Names(), whisper.MicroNames()...)
	var cs []goldenCell
	seen := map[string]bool{}
	for _, e := range scheme.All() {
		for _, wl := range workloads {
			for _, tree := range []masu.TreeKind{masu.BMTEager, masu.ToCLazy} {
				spec := Spec{Scheme: e.ID, Tree: tree}
				name := fmt.Sprintf("%s/%s/%s", e.Name, wl, spec.EffectiveTree())
				if !seen[name] {
					seen[name] = true
					cs = append(cs, goldenCell{name, wl, spec, goldenRecordTxns})
				}
			}
		}
	}
	for _, sch := range []controller.Scheme{controller.PreWPQSecure, controller.DolosPartial} {
		for _, wl := range []string{"Hashmap", "Btree"} {
			e, _ := scheme.ByID(sch)
			base := fmt.Sprintf("%s/%s/%s", e.Name, wl, masu.BMTEager)
			for _, w := range []int{0, 1, 2} {
				cs = append(cs, goldenCell{fmt.Sprintf("%s/ooo%d", base, w), wl,
					Spec{Scheme: sch, Tree: masu.BMTEager, OoOWindow: w}, goldenRecordTxns})
			}
			for _, n := range []int{2, 4} {
				for _, w := range []int{0, 2} {
					cs = append(cs, goldenCell{fmt.Sprintf("%s/cores%d/ooo%d", base, n, w), wl,
						Spec{Scheme: sch, Tree: masu.BMTEager, Cores: n, OoOWindow: w}, goldenRecordTxns})
				}
			}
		}
	}
	return append(cs, txns200Cells()...)
}

// txns200Cells is the 200-transaction axis, on the eager BMT: Pre-WPQ
// and the three Dolos designs, and every scheme that reports a recovery
// time, on Hashmap and Btree; then Pre-WPQ and Dolos-Partial on Hashmap
// with 2 and 4 contending cores at OoO window 2. It pins runs four times
// longer than the other cells, for the schemes the evaluation compares.
func txns200Cells() []goldenCell {
	var cs []goldenCell
	add := func(wl string, spec Spec, suffix string) {
		e, _ := scheme.ByID(spec.Scheme)
		name := fmt.Sprintf("%s/%s/%s%s/txns%d", e.Name, wl, spec.EffectiveTree(), suffix, goldenLongTxns)
		cs = append(cs, goldenCell{name, wl, spec, goldenLongTxns})
	}
	dolos := []controller.Scheme{controller.PreWPQSecure, controller.DolosFull, controller.DolosPartial, controller.DolosPost}
	for _, wl := range []string{"Hashmap", "Btree"} {
		for _, sch := range dolos {
			add(wl, Spec{Scheme: sch, Tree: masu.BMTEager}, "")
		}
		for _, e := range scheme.All() {
			if e.Pipeline.ReportsRecovery {
				add(wl, Spec{Scheme: e.ID, Tree: masu.BMTEager}, "")
			}
		}
	}
	for _, n := range []int{2, 4} {
		for _, sch := range []controller.Scheme{controller.PreWPQSecure, controller.DolosPartial} {
			add("Hashmap", Spec{Scheme: sch, Tree: masu.BMTEager, Cores: n, OoOWindow: 2},
				fmt.Sprintf("/cores%d/ooo2", n))
		}
	}
	return cs
}

// recordSHA256 hashes the JSON of rr's RunRecord without its host-side
// fields (wall time and events/s are left zero, so they are omitted):
// exactly the fields cliutil.CompareBenchRecords compares.
func recordSHA256(t *testing.T, rr RunResult, spec Spec) string {
	t.Helper()
	spec = spec.withDefaults()
	rec := cliutil.BuildRunRecord(rr.Result, spec.EffectiveTree(), spec.TxSize, goldenRecordSeed,
		rr.Events, 0, rr.Stats, nil)
	buf, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestGoldenRecords pins the deterministic RunRecord of every golden
// cell, run both with functional crypto (through RunGridNotify) and on
// the latency-only engine (runEngine) against the same constant. A
// change to the timing model, the cost tables or the front-end shows up
// here as a changed hash; a refactor must leave every constant as it
// is. Each transaction count runs through its own Runner.
func TestGoldenRecords(t *testing.T) {
	cs := goldenCells()
	if len(goldenRecordSHA256) != len(cs) {
		t.Errorf("%d pinned hashes for %d cells", len(goldenRecordSHA256), len(cs))
	}
	for _, txns := range []int{goldenRecordTxns, goldenLongTxns} {
		var run []goldenCell
		var grid []Cell
		for _, c := range cs {
			if c.txns == txns {
				run = append(run, c)
				grid = append(grid, Cell{Workload: c.workload, Spec: c.spec})
			}
		}
		r := NewRunner(Options{Transactions: txns, Seed: goldenRecordSeed})
		functional, err := r.RunGridNotify(context.Background(), grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		fast := make([]RunResult, len(grid))
		err = r.forEach(len(grid), func(i int) (err error) {
			fast[i], err = runEngine(r, grid[i].Workload, grid[i].Spec, true)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range run {
			want, ok := goldenRecordSHA256[c.name]
			for _, e := range []struct {
				mode string
				rr   RunResult
			}{{"functional", functional[i]}, {"fast", fast[i]}} {
				if got := recordSHA256(t, e.rr, c.spec); !ok || got != want {
					t.Errorf("%q (%s): sha256 %s, pinned %s", c.name, e.mode, got, want)
				}
			}
		}
	}
}

// goldenRecordSHA256 pins one SHA-256 per golden cell (see goldenCells
// and recordSHA256), taken at seed 1 and 50 transactions, or 200 for
// the keys ending in /txns200.
var goldenRecordSHA256 = map[string]string{
	"ideal/Hashmap/eager-BMT":                     "f78d9ee3dd09e5b9a0d4279806fe4ad370da7ed3dd9d4ddc09fba5a9b802743d",
	"ideal/Hashmap/lazy-ToC":                      "c7619b41445752b672174e026aa2423f7617491a9e1ab85c7cc14950cab167c0",
	"ideal/Ctree/eager-BMT":                       "72716bd7a32e44158b88cda0f193c75cf5885745b2004bb4d9dfa00278887433",
	"ideal/Ctree/lazy-ToC":                        "cc2fb4f2e91f4e944d974cb699897481890d5c6c64b0d1fdf21a9da647bd3e6d",
	"ideal/Btree/eager-BMT":                       "92fe2fc53740b72712380fdf8e5135de91cf73f04d995b811460e7c1584a619e",
	"ideal/Btree/lazy-ToC":                        "a4f138da2deffc3259cd5ddf1e1e84d7b079c3be06043b1a1e9cf4829528f932",
	"ideal/RBtree/eager-BMT":                      "d806218c90381320363efd0214c65da96777c7c7213849f2eb396c55ef6f8c39",
	"ideal/RBtree/lazy-ToC":                       "88acb790735e197108162dc6819b9f4fdfc983e6447337c3329a27c021a8c039",
	"ideal/NStore:YCSB/eager-BMT":                 "89c7be750819ce37aabcb2ae844138a9fafbf6ccee8ba07ac546ab7f7bb5fff4",
	"ideal/NStore:YCSB/lazy-ToC":                  "a1dd8bfcf87793ae4af7d9ac8c0c9213d0d08568f22f6d26b2e03f2c73076a25",
	"ideal/Redis/eager-BMT":                       "be8c55f70f828188c1bcbe27041da96870d1f3e76545966e2d53873879bf4afa",
	"ideal/Redis/lazy-ToC":                        "6c9c98266c1f48a3c33a8c7196fde0d5b8e99360c9f856b106155e0510fd1d9b",
	"ideal/TxStream/eager-BMT":                    "3f0121b936e29d14a97b184ce9e136bf457ceb08d03f4e532915ff029110c673",
	"ideal/TxStream/lazy-ToC":                     "f0ead8a056cf063c126326e591795dbb851faf71e5c0c50331d85308764eb667",
	"ideal/PQueue/eager-BMT":                      "83e75796cf0d2466de5d6dcb6ea354e2db292be21acd467d983fa3ed890f7fb3",
	"ideal/PQueue/lazy-ToC":                       "e60cf3079abec03a6706535e281d3541085b26b4b991a0cf88c949e73d83dfcd",
	"baseline/Hashmap/eager-BMT":                  "d32cda76d31fb2059e000f3ff135fb027c1551af5a06d83e51c18dea0ad3eaa1",
	"baseline/Hashmap/lazy-ToC":                   "f246dc9bcf401f8e0faa0b3f63cbd9ad2ed1761bb74db1b1c7155c6c45b2c964",
	"baseline/Ctree/eager-BMT":                    "6ac19351cce8156c678e4b921757db5f09b7d9762be04b216b3d0a707e0f9919",
	"baseline/Ctree/lazy-ToC":                     "f97418ff599fd736999cd3dda1f0931bcf2be7bce1e55944cd3cbbc472014666",
	"baseline/Btree/eager-BMT":                    "592b2a4c937ad40738a3252054911494dd18858fe5049622d6fd3204f0f17775",
	"baseline/Btree/lazy-ToC":                     "6bf3b2383d3def1b105fc0721ce64c9ec9d51593ee891cf3644e74fcfe494d9f",
	"baseline/RBtree/eager-BMT":                   "31f3cafd76d29fe91e2a45924a560a2430a9f86d45437c7eeee5ea06fc978fcf",
	"baseline/RBtree/lazy-ToC":                    "1f6e98515f583488b644ade0176ac19f3c816528fb431047622e5a36b97e6af0",
	"baseline/NStore:YCSB/eager-BMT":              "406c83d7e785f4489c85b4f4367ccf596509b3fbe4271c0c2bbb77eff206247a",
	"baseline/NStore:YCSB/lazy-ToC":               "8b739d9806a62bf8f288876cbf28e9ac6872eb591b9dfb1e08167c818f0fe411",
	"baseline/Redis/eager-BMT":                    "7c86b4cb2b3b982e498492efef8abc4d7fb1e979882f2f9d4f89df5726314ebf",
	"baseline/Redis/lazy-ToC":                     "0b255ac59d4a84939538e0d663d8d0f8be77a0be07d6fdb77bd0665eec2b280d",
	"baseline/TxStream/eager-BMT":                 "869a917447d46dd504d7e8964ddc7b41039994fad0c3dcf01a23b4b7b9fe3247",
	"baseline/TxStream/lazy-ToC":                  "f7e1198fc36c465f8d9a13fc0ef4b8eeb1c7380c52d0fad2237e46e75607133a",
	"baseline/PQueue/eager-BMT":                   "d49caa43b3a24dda69f3cc0f57d99429010c571d1c94d8bf80ee4d1f567e9f15",
	"baseline/PQueue/lazy-ToC":                    "95114e5a08741010ce47d01315c440487522fab551984af114521c59f43b4473",
	"dolos-full/Hashmap/eager-BMT":                "a8be9b150935ca8c486332a22c15140e7830d86192801a2f04bbb73a8f87b088",
	"dolos-full/Hashmap/lazy-ToC":                 "0f44ce60a59256983c3b12fca2ee10bf68a8e0dc08da91fe51fe620cb5579066",
	"dolos-full/Ctree/eager-BMT":                  "9e90806cda17a5e223a2193e4efe8e57cd64d09bdd6c2ffe385f295140864fba",
	"dolos-full/Ctree/lazy-ToC":                   "55a369bbd1021a4c6f7b29692f869aef386ccf0c1343313a603891215b96e3fc",
	"dolos-full/Btree/eager-BMT":                  "cbae26d4b585fad20bf84720c2b3f20829618e98a38a2f1e69c782b44182902a",
	"dolos-full/Btree/lazy-ToC":                   "1736160effe7d21a8f03df5294292076aa653ae0372e9b0b3cf8fe5fe91af8b2",
	"dolos-full/RBtree/eager-BMT":                 "cd36b59bd19613f95b0ad8d2113097a08038e8c75df1e5e06264f19748684f28",
	"dolos-full/RBtree/lazy-ToC":                  "dc2bdd7412573957c8f605f01de715c278d502df9c9336170282fd03402e299a",
	"dolos-full/NStore:YCSB/eager-BMT":            "cf3217898de67087c1b11881e73360e53e1207c163d8f6c935467bcfd604a603",
	"dolos-full/NStore:YCSB/lazy-ToC":             "33e3377436f8c23afecf9fd91c8271ee2f4521f13abdb5471ea7af709b1e99ae",
	"dolos-full/Redis/eager-BMT":                  "bbaec2ca2129b38697a07e05020e75efc566e18971e6683913ed424cedf598a5",
	"dolos-full/Redis/lazy-ToC":                   "9d07ff0feca58c761aa9b211fe5d73dc2dcc677d7be61097389bac5f1bd4c528",
	"dolos-full/TxStream/eager-BMT":               "e1005c446346cc6d0a02d253ac61ac0fa5e98bce27fd8ebcdf778de4fd3ae3d8",
	"dolos-full/TxStream/lazy-ToC":                "fe826a33b250acad0e27fe1a58a4fac63bafac3da2952bfbb6fb22bc6d4dbb31",
	"dolos-full/PQueue/eager-BMT":                 "2dc4eb8da33d3a273a5b8dd2adc1bc5764ac514f4658fb2f8d0508fb47880ecd",
	"dolos-full/PQueue/lazy-ToC":                  "4c3eceec9c6e21eee3baf24e30a1f155040737d410a4ae9eab0977c4e148c72e",
	"dolos-partial/Hashmap/eager-BMT":             "69f3edb85addcf0ffdb0a263c10348cdc461f2818c07bc2ded65bdcc4be7ae46",
	"dolos-partial/Hashmap/lazy-ToC":              "68fd0e456ed4b126ab405b0ecbf6362bba4b281e13afb43ece08a56a5819349d",
	"dolos-partial/Ctree/eager-BMT":               "3b616c803b5206f96f169e481a247328281cb4d685c978a38f02ec1d9318cc9b",
	"dolos-partial/Ctree/lazy-ToC":                "6bc95105c8e8a1404196988bd14ccc213509771e4c82212c521ae64214287116",
	"dolos-partial/Btree/eager-BMT":               "c8c7aa75e5689b4164665f657df08a524391c0615bab3819eb7b04139215871c",
	"dolos-partial/Btree/lazy-ToC":                "b9d6c1ac519b5d3a74328a181c89d20ba1b02ea181e488d46825ff317ce3a603",
	"dolos-partial/RBtree/eager-BMT":              "d0b91890943041c51a023fcb90e9a0d22c242befb04c708a94dd646bb51cd6c4",
	"dolos-partial/RBtree/lazy-ToC":               "d48e965fef51e8e36ca5b2284635efbee6ae657fbece7e24e3da1bf20defa1a5",
	"dolos-partial/NStore:YCSB/eager-BMT":         "b313616474717da192c7b05074ce6df1e457d0c386b8b2c60a60974a7bdeaebd",
	"dolos-partial/NStore:YCSB/lazy-ToC":          "9947052b71493601252306fc64f6a1a6387e80998b79cdc4ed5d1393739e1ca2",
	"dolos-partial/Redis/eager-BMT":               "fd0d2b3644bb65d44c225276d840b73138b7ac44b0d45877b0e2554c0b1f2aa8",
	"dolos-partial/Redis/lazy-ToC":                "a1c41526ccbda6bc3d80543a10e964f1c99b0f5ae9a85c411da2a14b45a03216",
	"dolos-partial/TxStream/eager-BMT":            "12a249eb793e7ecbda2b86d29e2e3ce27380300b8fb0ab5f4981cb27e16d2e19",
	"dolos-partial/TxStream/lazy-ToC":             "5ed9a4f436d96fbaa6f71f5f12bd1118b7cf2e22ffd61eb8f5ba90ee29a9672b",
	"dolos-partial/PQueue/eager-BMT":              "5822fb99819fab15ac086413c119d03afeb4fab73fc43f5b473bf5d345a1efdb",
	"dolos-partial/PQueue/lazy-ToC":               "b9529525bf311a63398a49df50f734134e13ff43c2ec46a7e6e95e5e7e7b68ac",
	"dolos-post/Hashmap/eager-BMT":                "5407091bbe512102d93d8ffb71a1914bf85b6754dd2681ebe8817f65bb8a80bb",
	"dolos-post/Hashmap/lazy-ToC":                 "ca6414aae074f49348fe4563439071db9ce41389ec3f32646d004d854c18bad2",
	"dolos-post/Ctree/eager-BMT":                  "92a8d358312e0b1c99ef02c605aa56a75a8ecf160a68fc55cb85a318f176d742",
	"dolos-post/Ctree/lazy-ToC":                   "642030dfcb4a7c603a58ac8f03387a988481d23f3bf6ac5bd33d866e2dcf72e1",
	"dolos-post/Btree/eager-BMT":                  "e3ac5b465e0ef50da15b7ded607d1d9d489baf0493eef9cee9497561f7dee904",
	"dolos-post/Btree/lazy-ToC":                   "c23e1090beca4441b305343d9b8c20d06af0adc16840464cda398c733e9b8522",
	"dolos-post/RBtree/eager-BMT":                 "c6a0541536a409d173e05cf4f2750bd79db75af51281f4a816e2fd2a43c2805a",
	"dolos-post/RBtree/lazy-ToC":                  "d72b4584e106a310138832fc8a6040857c501f9d0f5df822158857198f7e668d",
	"dolos-post/NStore:YCSB/eager-BMT":            "50d2c2fd637b01807aa43acc1fafc8460c99c8bbc7d9bb66469bab969754c313",
	"dolos-post/NStore:YCSB/lazy-ToC":             "42a43dc8fb37c83611da805dff260f3b6fad570d8b84fa559037f59c9fdc3f87",
	"dolos-post/Redis/eager-BMT":                  "c731c64ee5342b643cac91d6b973559bde433ab75260176bae5e7a60c1e6fee0",
	"dolos-post/Redis/lazy-ToC":                   "73170991e1d704d6e7ea7d3d75b462e865c698a2f873bcba2cf250cfec37c10e",
	"dolos-post/TxStream/eager-BMT":               "b0ae55cd9bd2a56a10321f6cb7ae124b22a9976a464cdec4667a5af088175e7a",
	"dolos-post/TxStream/lazy-ToC":                "7ad2bee75dd2d5f38a2a8069ddca15cec61b1d4d007e83f1d20554714f092d21",
	"dolos-post/PQueue/eager-BMT":                 "4de7d335f0382e84d5bb0631c796f72459ee8b99cf0913e95daa579d978ccef2",
	"dolos-post/PQueue/lazy-ToC":                  "b4db5e45f43c901532d08ca8a61f0671eeb59768fb809fa419fb5d1df974cfc7",
	"eadr/Hashmap/eager-BMT":                      "3a5c18c00ffdb72e12028aef881f22896fd29d74bc3d70fba708e7163e2f8d95",
	"eadr/Hashmap/lazy-ToC":                       "3b37726b75af1ca16156338eeae91b74fab1a6f5d9825180ae1d90e096261c4c",
	"eadr/Ctree/eager-BMT":                        "d897c6bf2a42f713a467cadd4a71e1ce6731571f8b0decb5c7b0d2dfbb1beda6",
	"eadr/Ctree/lazy-ToC":                         "42b23c0c62a6510cf9854901cf920a2a673b41072918ffee0b9a851073dc2515",
	"eadr/Btree/eager-BMT":                        "8f68d8bf57793c960b735239e3c25260734671ae34d5fbc2d5c289546b0c4a85",
	"eadr/Btree/lazy-ToC":                         "aeba56ebf2ce4ad6cfc928defc13a58444f1e3177f96c8b2e7d87b204c51dd87",
	"eadr/RBtree/eager-BMT":                       "ff592a3ccf023b71701fa939387893a02d44ebc318ff0ac6baa817224d501e9c",
	"eadr/RBtree/lazy-ToC":                        "b1bb8645f0b0489108eef23495f9e226728bab7a5738c853756b2e62f4a360c1",
	"eadr/NStore:YCSB/eager-BMT":                  "556c221349c0a9a5675efaae080ade172488b9fa89a0b4a6d3b758fe17c9e061",
	"eadr/NStore:YCSB/lazy-ToC":                   "c1c802672eeac63933325ded695f4cc47769b38dfa94712db66ebd4168b3c994",
	"eadr/Redis/eager-BMT":                        "ccc17df5374cd16f9b33549cf757bca186a05ead5abfbcd33a4487ca32580d62",
	"eadr/Redis/lazy-ToC":                         "cac22c66c3a0144e68104b0ae15ec603ec72338271eb6bf86873cc080f6c502d",
	"eadr/TxStream/eager-BMT":                     "761d0ed95a358dc7654383f5caa4be9bd3cb49858266ae5dae4977e02459d196",
	"eadr/TxStream/lazy-ToC":                      "41731f12ed01bfa54d66edbbcd2884a5f061d52b05366bf2cd817b6467e733c6",
	"eadr/PQueue/eager-BMT":                       "bfebe55615b3aa693f8fd059e476177a45713904cad169e1c4a8bd079ff70046",
	"eadr/PQueue/lazy-ToC":                        "2066ba9a8335b539e89916c71231a0a5fb196a9410aa0ab7ab8879483aac3401",
	"triad-nvm/Hashmap/eager-BMT":                 "b8da0855b99d07aa71b0bdf9f11e5e8c0551a97ba9fed89683d96dab1bbc902f",
	"triad-nvm/Ctree/eager-BMT":                   "3355f55f7c414c7a1d92cb7c09ed7f92996ff2fcde8b2a2e70c46d10e75b37b1",
	"triad-nvm/Btree/eager-BMT":                   "182cc27b8227e97cfb940e71e59f4c49caf13c7809903db91cdabe074eaccd69",
	"triad-nvm/RBtree/eager-BMT":                  "2204e4018fbe2b76df1004afa8df97e39bda7ea172d138ea779bee0a5d536882",
	"triad-nvm/NStore:YCSB/eager-BMT":             "31f0e0f52bc54a5448faeaeebacd0732b3d251e3dd4a1daceb5b04e353665980",
	"triad-nvm/Redis/eager-BMT":                   "5ad895d17bb4df732f9708302ec1ad234d8994cb3ff10a2de9a3b4cad40a0629",
	"triad-nvm/TxStream/eager-BMT":                "18d7b1614af4993f3a13a295740d928acc55994c5cd1918965aaabf45880b9f6",
	"triad-nvm/PQueue/eager-BMT":                  "71d70da47afd6f56d8adf50c87de83244a91abe1f606ef4ea8239476d7417be7",
	"supermem/Hashmap/eager-BMT":                  "da3c3ab9e7215860854062b703d18be973bbffa9bd049594b0b5ad7b727a95ae",
	"supermem/Ctree/eager-BMT":                    "5a488d80b95629c05db04d16bb078b15d38f1f95b8f39136bfba0e32ed0a63ac",
	"supermem/Btree/eager-BMT":                    "057144b3675d0728d63f89ffb43a6c69b13f7b15549c0869fcf6f685d02d74fd",
	"supermem/RBtree/eager-BMT":                   "c5f7bf4362b02d9e7eb4bc10fef52058b9c3412637257d69c29f0707bf0c3823",
	"supermem/NStore:YCSB/eager-BMT":              "cb52410462f2e602d4ab2a0229e01181db5b6340e3288ac3a51767e4f0bf1542",
	"supermem/Redis/eager-BMT":                    "66a551801eabce3dfffb76e9231d1b6aa76cfb375747956788beb1c8793c85dd",
	"supermem/TxStream/eager-BMT":                 "b90ef465bbeba2bfeef1cdd9a3f57cd561a426d3726617abaeffb2c537445f3a",
	"supermem/PQueue/eager-BMT":                   "8a4553ceda1a55e998be4573107a75725ae336bac92e078eb1983fc86bc2bd17",
	"phoenix/Hashmap/lazy-ToC":                    "110198ef8b1089ca6c98720eb87432c3820ff30704be05734a3bb2dc4b08e138",
	"phoenix/Ctree/lazy-ToC":                      "cdeb319a86b0b3a989563a9802979083ee98ec6c8a722058d308058e178032cc",
	"phoenix/Btree/lazy-ToC":                      "f8f88e1c97095b26f3e5f1f47a0f71edabeaf402e45f1a5eecef0c5f51c83efb",
	"phoenix/RBtree/lazy-ToC":                     "1eb63649d93ad3f48febf24388b9644103e3ac0ba6ca52780d2e2fcf87f94597",
	"phoenix/NStore:YCSB/lazy-ToC":                "82577a1a4baa62c6f5c2dc9417e9df235f8bdaec18041ec708f99c70113ade33",
	"phoenix/Redis/lazy-ToC":                      "b6cb513e0ea675a28e3a186c1902aa10dbefe6080b6344659c30f69b4d5aad4b",
	"phoenix/TxStream/lazy-ToC":                   "2f956cf1c003c0d9e297777d3c6652d4bf86c56a3e553a33ed6f80863e13adb5",
	"phoenix/PQueue/lazy-ToC":                     "443be21d4b72fd0fd9298448390802c2c30b18886b72563421a1a823e33cb51d",
	"stum/Hashmap/eager-BMT":                      "98a50c395d74fd30f08b85f232088112ef60228fa05cb9066eef1557c0370519",
	"stum/Ctree/eager-BMT":                        "0d6dd133b78fe34259171839443ebf65595d4223384d44ce25cccc2ebb991b17",
	"stum/Btree/eager-BMT":                        "d177ec3d94eac52e24099d3decafebdd0adfaeb2ca2e829fb03323a517db13bc",
	"stum/RBtree/eager-BMT":                       "41b2b44c4307ec61ff850d10e8589c9bf6942b1da4803b50ed4271d3624708e2",
	"stum/NStore:YCSB/eager-BMT":                  "3033e48f660301bdeb65c3a5f60d0db2fcb25a561f8aa5564cc1e3c66000e529",
	"stum/Redis/eager-BMT":                        "5ce6e507d6d0dc4bfd4f3961457f111e32a64c5c27a0475208a2e62ddb82b006",
	"stum/TxStream/eager-BMT":                     "1c8cbab03390949603c56992ee99627d6e5a31772b50d375c47054c0b8c94421",
	"stum/PQueue/eager-BMT":                       "bc374ee304b99986509617e69700de0be4c1a111eb95183f6cf75bbbe54a532f",
	"baseline/Hashmap/eager-BMT/ooo0":             "d32cda76d31fb2059e000f3ff135fb027c1551af5a06d83e51c18dea0ad3eaa1",
	"baseline/Hashmap/eager-BMT/ooo1":             "84dabbd8d37620ad2624f332cd52b778c83b948796e24858ebb875322c537810",
	"baseline/Hashmap/eager-BMT/ooo2":             "981a5c5af1d9216ca3bb74a09debe5d0d621f640edd85a18ae8212c3f7defb3c",
	"baseline/Hashmap/eager-BMT/cores2/ooo0":      "773b2b8d0e49f3e4ab1c517ad9e9597d58607b751f308315ad596177ca2ab3a0",
	"baseline/Hashmap/eager-BMT/cores2/ooo2":      "887c89f409ce2452fc8f95c91d779a3657446118b445fd753e96bbc2a01e15b9",
	"baseline/Hashmap/eager-BMT/cores4/ooo0":      "47c9406aa0dbc863f558897c8c5c048ad533b86c3e7fd2cf9d9794bb9759d251",
	"baseline/Hashmap/eager-BMT/cores4/ooo2":      "6f0bd89c824bb2916d32b9b3935934b4591c4d49f9ef02f29fea3bd241611eb0",
	"baseline/Btree/eager-BMT/ooo0":               "592b2a4c937ad40738a3252054911494dd18858fe5049622d6fd3204f0f17775",
	"baseline/Btree/eager-BMT/ooo1":               "cad42da99f733377fa53fc9f90fbc51c5782da0ea3e5fe23c638c474fdc0222c",
	"baseline/Btree/eager-BMT/ooo2":               "ce82ae2dbe3e18c1f7a1c37158de61e8046cac3f3a4af5d2e26381eeec4c34a1",
	"baseline/Btree/eager-BMT/cores2/ooo0":        "8449d97a6d017d26a26cd2b811a86ae57f268bfc529ac04de190d2062a655aad",
	"baseline/Btree/eager-BMT/cores2/ooo2":        "71948bedc89e7fbc07915dce2767e15a6c95ebe170301e5ba720926b9b2bea46",
	"baseline/Btree/eager-BMT/cores4/ooo0":        "ad60169bc92f1e5f4063ad9645aecaca6c4ae884127ff0ecc89f6f254d4693f7",
	"baseline/Btree/eager-BMT/cores4/ooo2":        "078eb9fdcdf6e80c23c3f8d0b75e4b1ea5202e673b0927ab23b858a62d92f735",
	"dolos-partial/Hashmap/eager-BMT/ooo0":        "69f3edb85addcf0ffdb0a263c10348cdc461f2818c07bc2ded65bdcc4be7ae46",
	"dolos-partial/Hashmap/eager-BMT/ooo1":        "8e232f41b6aecd8bd16323f9f34f33b89edb17c469140a3cf36309e3bc41c68d",
	"dolos-partial/Hashmap/eager-BMT/ooo2":        "ada6ad856b548c134f74da95ad2097978bd7f02e7447447940a899c89abebdd9",
	"dolos-partial/Hashmap/eager-BMT/cores2/ooo0": "a2df64d13ff35a9dd6fe144ad56b779c05dbf2781b481c2c4fb2b634ed3f0dba",
	"dolos-partial/Hashmap/eager-BMT/cores2/ooo2": "b19c7e757d1761dbf5d472291edf6505517a8a1dc6c052896d024f0d64aab794",
	"dolos-partial/Hashmap/eager-BMT/cores4/ooo0": "e871e2c55a1e490b6108bce4f570185db60d8e2559a5039e95e7d245f6a10599",
	"dolos-partial/Hashmap/eager-BMT/cores4/ooo2": "9523e43cbf885c7eb2e498164b02f538c7f5ce4eb01f1828dab40aa1a3077180",
	"dolos-partial/Btree/eager-BMT/ooo0":          "c8c7aa75e5689b4164665f657df08a524391c0615bab3819eb7b04139215871c",
	"dolos-partial/Btree/eager-BMT/ooo1":          "97f8e37a6f30620e713eab19dfc755a472245c8daedd41dd4a43d5d1c21ff99b",
	"dolos-partial/Btree/eager-BMT/ooo2":          "4aa64b4267a039b7900c8f0371a1d9b94287771e26f10b80210ad6a4e021ca67",
	"dolos-partial/Btree/eager-BMT/cores2/ooo0":   "ced3c34c9bc7303049c5b5146977cac3ef4bd5865dc0c28f9cd5e6980b097c78",
	"dolos-partial/Btree/eager-BMT/cores2/ooo2":   "1bc45dfab2b797b35a6929133833c527d063af4db05c586ffcec58a6d53949ad",
	"dolos-partial/Btree/eager-BMT/cores4/ooo0":   "fa2f37df7d604934cb0a066b6086a9bee580c477f1ffbf98bfdf9f69385e7c4f",
	"dolos-partial/Btree/eager-BMT/cores4/ooo2":   "e733c8c3c569bf787dc9d2ed5e6b9df449a6a6b40c4a5fd56866ae31c075bfb7",

	// The 200-transaction axis (txns200Cells).
	"baseline/Hashmap/eager-BMT/txns200":                  "d9bd89510917549192afb15eb83a3b4c1771af80197985a533082c664561e386",
	"dolos-full/Hashmap/eager-BMT/txns200":                "d9871ff12298d4488c9f385b0829b76bca131836eb26fb2435ac605072f3b3de",
	"dolos-partial/Hashmap/eager-BMT/txns200":             "d1c729e45fafa4c7e3d4b245e0f83a7971eeba0e5d42ca90def5063a62319ae8",
	"dolos-post/Hashmap/eager-BMT/txns200":                "438e8c4a8bae17109af61032b1908f650711916ebba215100b7f8444c9d11ddd",
	"triad-nvm/Hashmap/eager-BMT/txns200":                 "871f6ddb5343ef9672051db8e4dede974201352eb53d8f222e772c480b958e02",
	"supermem/Hashmap/eager-BMT/txns200":                  "104355b14df6431bc78501652789193d1846affb7cf43b6cdfed97541a28ca83",
	"phoenix/Hashmap/lazy-ToC/txns200":                    "2b02da1180bec6a2a55abd6f1ce4aecb9fcaf79f7a3910331725f2555aed7aed",
	"stum/Hashmap/eager-BMT/txns200":                      "d79035d88449600893db73b2d57810eebfb48ebe4e1ed15f0eaa7b0fdef375ec",
	"baseline/Btree/eager-BMT/txns200":                    "eeeb0de50430896e72b3e2d369aa77050b69891b2e4155f98821b91727c474d6",
	"dolos-full/Btree/eager-BMT/txns200":                  "20f66d5ef2c21ac2ac951d212b3bdcc5272e7f2ad683a762c357678c95a5b98e",
	"dolos-partial/Btree/eager-BMT/txns200":               "5856ca37ce9e4263c7f8da52947fa3f6f4e39f94d67b4236bd5ecede625abeca",
	"dolos-post/Btree/eager-BMT/txns200":                  "798ff072774b63ea89a2a25ee396688367f0a5e659c8db94180b0950481f9aa9",
	"triad-nvm/Btree/eager-BMT/txns200":                   "f95a682cf9aa54cffa4adc766d2bdd3c21391461b3dc8d3b13a97438830f8eb3",
	"supermem/Btree/eager-BMT/txns200":                    "c90cff7ae0864640f8d18e40dc03bb56e20ec269bfcab32f78b02482e8a18004",
	"phoenix/Btree/lazy-ToC/txns200":                      "26111c313bbe798b16e8f219060344b9943967a5d18f565a295514e2a02e7d0c",
	"stum/Btree/eager-BMT/txns200":                        "c8e4d240fd15220c4266784a33b9051349c633e817e1fc2e1cbae0e6b7dcf26a",
	"baseline/Hashmap/eager-BMT/cores2/ooo2/txns200":      "cc02c56da977144be88b0d6dcf4f319f5b4b63eb9b7367aac5542cdf786860fd",
	"dolos-partial/Hashmap/eager-BMT/cores2/ooo2/txns200": "9116f45975acd02402e36ebd32a961d3d00d26228690ba86068db3f943ce1597",
	"baseline/Hashmap/eager-BMT/cores4/ooo2/txns200":      "546837d6149faab241d78e3e88b1ca0c8f30a1de91b1adc983e5f9d5fa13e17a",
	"dolos-partial/Hashmap/eager-BMT/cores4/ooo2/txns200": "36d1a860c64dcc8668469c8e4059f00f0d8fffc51ad4af7cb6d8530d36a5c15a",
}
