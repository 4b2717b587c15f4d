package masu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dolos/internal/cliutil"
	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/mcore"
	"dolos/internal/nvm"
	"dolos/internal/scheme"
	"dolos/internal/sim"
	"dolos/internal/telemetry"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// loadTxns sizes the traces of the load differential.
const loadTxns = 20

// loaders are the two install paths the differential compares: the page
// run install and one Ma-SU write per line.
var loaders = [2]func(c *controller.Controller, img []trace.InitLine){
	(*controller.Controller).LoadImage,
	func(c *controller.Controller, img []trace.InitLine) {
		for _, il := range img {
			c.MaSU().ProcessWrite(il.Addr, il.Data, -1)
		}
	},
}

// imageless returns tr without its checkpoint image, to run on a system
// whose controller already holds it.
func imageless(tr *trace.Trace) *trace.Trace {
	c := *tr
	c.InitImage = nil
	return &c
}

// snapshotSHA256 hashes the device's pages in address order.
func snapshotSHA256(dev *nvm.Device) string {
	snap := dev.Snapshot()
	pages := make([]uint64, 0, len(snap))
	for pg := range snap {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	h := sha256.New()
	for _, pg := range pages {
		p := snap[pg]
		fmt.Fprintf(h, "%d:", pg)
		h.Write(p[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordDiff names every RunRecord field in which a and b differ.
func recordDiff(a, b telemetry.RunRecord) []string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// loadCase is one configuration of the differential.
type loadCase struct {
	name string
	cfg  controller.Config
}

// loadCases enumerates every registry scheme on both trees (a scheme
// that pins its tree yields one case), in functional and fast mode.
func loadCases() []loadCase {
	var cs []loadCase
	seen := map[string]bool{}
	for _, e := range scheme.All() {
		for _, tree := range []masu.TreeKind{masu.BMTEager, masu.ToCLazy} {
			for _, fast := range []bool{false, true} {
				cfg := controller.Config{Scheme: e.ID, Tree: tree, FastMode: fast}
				copy(cfg.AESKey[:], "dolos-aes-key-16")
				copy(cfg.MACKey[:], "dolos-mac-key-16")
				name := fmt.Sprintf("%s/%s/fast=%v", e.Name, cfg.EffectiveTree(), fast)
				if !seen[name] {
					seen[name] = true
					cs = append(cs, loadCase{name, cfg})
				}
			}
		}
	}
	return cs
}

// checkInstalled compares the two sides' Ma-SUs right after they
// installed imgs in order, and then a second pair of bare controllers
// that install them and crash: the full state, which StateDiff compares
// (Writes, the tree's Updates and MACOps, the counter blocks, both
// caches' counts, residency, dirtiness and LRU stamps, the shadow table
// and the pending bits), and the NVM image the crash leaves.
func checkInstalled(t *testing.T, name string, cfg controller.Config, imgs [][]trace.InitLine, ma [2]*masu.Unit) {
	t.Helper()
	if d := masu.StateDiff(ma[0], ma[1]); d != "" {
		t.Errorf("%s: state after the install differs at %s", name, d)
	}
	var crashed [2]*masu.Unit
	var devs [2]*nvm.Device
	for i, load := range loaders {
		eng := sim.NewEngine()
		devs[i] = nvm.NewDevice(eng, cfg.DeviceSize(), 0)
		ctrl := controller.New(eng, devs[i], cfg)
		for _, img := range imgs {
			load(ctrl, img)
		}
		crashed[i] = ctrl.MaSU()
		crashed[i].CrashVolatile()
	}
	if d := masu.StateDiff(crashed[0], crashed[1]); d != "" {
		t.Errorf("%s: state after the crash differs at %s", name, d)
	}
	if a, b := snapshotSHA256(devs[0]), snapshotSHA256(devs[1]); a != b {
		t.Errorf("%s: NVM after the crash differs: %s vs %s", name, a, b)
	}
}

// TestLoadImageMatchesPerLine pins that LoadImage leaves exactly the
// state of one ProcessWrite per image line, and that a run from either
// state produces the same RunRecord: for every registry scheme on both
// trees, functional and fast, over the image of every whisper workload
// and over a 4-core image sequence loaded in core order. The runs use
// the traces without their images (each side installed its own), so
// they differ only in the install path.
func TestLoadImageMatchesPerLine(t *testing.T) {
	workloads := append(whisper.Names(), whisper.MicroNames()...)
	traces := make([]*trace.Trace, len(workloads))
	for i, wl := range workloads {
		w, err := whisper.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = w.Generate(whisper.Params{Transactions: loadTxns, Seed: 1})
	}
	cores := make([]*trace.Trace, 4)
	for i := range cores {
		cores[i] = whisper.Hashmap{}.Generate(whisper.Params{
			Transactions: loadTxns, Seed: mcore.CoreSeed(1, i), HeapBase: mcore.CoreHeapBase(i),
		})
	}

	for _, lc := range loadCases() {
		for wi, tr := range traces {
			name := lc.name + "/" + workloads[wi]
			var sys [2]*cpu.System
			var recs [2]telemetry.RunRecord
			for i, load := range loaders {
				sys[i] = cpu.NewSystem(lc.cfg)
				load(sys[i].Ctrl, tr.InitImage)
			}
			checkInstalled(t, name, lc.cfg, [][]trace.InitLine{tr.InitImage},
				[2]*masu.Unit{sys[0].Ctrl.MaSU(), sys[1].Ctrl.MaSU()})
			for i, s := range sys {
				res := s.Run(imageless(tr))
				recs[i] = cliutil.BuildRunRecord(res, lc.cfg.EffectiveTree(), tr.TxSize, 1,
					s.Eng.Processed(), 0, s.Ctrl.Stats(), nil)
			}
			if d := recordDiff(recs[0], recs[1]); len(d) > 0 {
				t.Errorf("%s: RunRecord fields differ: %v", name, d)
			}
		}

		name := lc.name + "/Hashmap/cores4"
		var sys [2]*mcore.System
		var recs [2]telemetry.RunRecord
		specs := make([]mcore.CoreSpec, len(cores))
		imgs := make([][]trace.InitLine, len(cores))
		for c, tr := range cores {
			specs[c] = mcore.CoreSpec{Workload: "Hashmap", Seed: mcore.CoreSeed(1, c), Trace: imageless(tr)}
			imgs[c] = tr.InitImage
		}
		for i, load := range loaders {
			sys[i] = mcore.NewSystem(mcore.Config{Ctrl: lc.cfg}, specs)
			for _, img := range imgs {
				load(sys[i].Ctrl, img)
			}
		}
		checkInstalled(t, name, lc.cfg, imgs, [2]*masu.Unit{sys[0].Ctrl.MaSU(), sys[1].Ctrl.MaSU()})
		for i, s := range sys {
			recs[i] = cliutil.BuildRunRecord(s.Run(), lc.cfg.EffectiveTree(), cores[0].TxSize, 1,
				s.Eng.Processed(), 0, s.Ctrl.Stats(), nil)
		}
		if d := recordDiff(recs[0], recs[1]); len(d) > 0 {
			t.Errorf("%s: RunRecord fields differ: %v", name, d)
		}
	}
}
