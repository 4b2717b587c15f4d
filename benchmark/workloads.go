package main

import (
	"fmt"
	"strings"

	"dolos/internal/cache"
	"dolos/internal/cliutil"
	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/mcore"
	"dolos/internal/nvm"
	"dolos/internal/sim"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// workload is one benchmark input set: a fixed simulator configuration
// run under each of its schemes in turn. Cell i of a run with seed s is
// scheme i mod S at trace seed 1000·s + ⌊i/S⌋, so every scheme sees every
// trace seed.
type workload struct {
	name    string
	app     whisper.Workload
	txns    int // measured transactions per core
	readPct int // NStore:YCSB read share (0 = the default 50/50 mix)
	cores   int // > 1: instances contending for one shared controller
	window  int // OoO issue window of every core (multi-core only)
	fast    bool
	tree    masu.TreeKind
	schemes []controller.Scheme
}

var workloads = []workload{
	// The paper's headline configuration: write/flush-heavy, functional
	// crypto, eager BMT, every eager-tree scheme. SHA-256 tree and line
	// MACs dominate host time, so crypt and bmt work shows here first.
	{
		name: "hashmap-eager", app: whisper.Hashmap{}, txns: 1000, tree: masu.BMTEager,
		schemes: []controller.Scheme{
			controller.PreWPQSecure, controller.DolosFull, controller.DolosPartial,
			controller.DolosPost, controller.TriadNVM, controller.SuperMem, controller.STUM,
		},
	},
	// Latency-only crypto removes SHA/AES, so host time spreads over the
	// event loop, controller, WPQ, caches, CPU front-end and trace
	// generation. A crypto or BMT hashing change should not move it.
	{
		name: "btree-fast", app: whisper.Btree{}, txns: 1000, fast: true, tree: masu.BMTEager,
		schemes: []controller.Scheme{
			controller.PreWPQSecure, controller.DolosFull, controller.DolosPartial, controller.DolosPost,
		},
	},
	// Read-mostly traffic on the lazy ToC: the read-verify path, the
	// metadata caches and toc, with checkpoint-image load about half of
	// each cell, so a write-path win that costs reads or set-up shows.
	{
		name: "ycsb-read-lazy", app: whisper.YCSB{}, txns: 3000, readPct: 95, tree: masu.ToCLazy,
		schemes: []controller.Scheme{controller.PreWPQSecure, controller.DolosPartial, controller.Phoenix},
	},
	// Four Hashmap instances on one shared controller: the mcore arbiter,
	// shared-WPQ retries and four traces generated per cell.
	{
		name: "contention-4core", app: whisper.Hashmap{}, txns: 250, cores: 4, window: 2, tree: masu.BMTEager,
		schemes: []controller.Scheme{controller.PreWPQSecure, controller.DolosPartial},
	},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// cell returns the scheme and trace seed of cell i.
func (w workload) cell(seed int64, i int) (controller.Scheme, int64) {
	s := len(w.schemes)
	return w.schemes[i%s], 1000*seed + int64(i/s)
}

func (w workload) config(sch controller.Scheme) controller.Config {
	cfg := controller.Config{Scheme: sch, Tree: w.tree, FastMode: w.fast}
	// dolos-sim's keys, so a cell's record matches `dolos-sim -json`.
	cfg.AESKey, cfg.MACKey = cliutil.DemoKeys("sim")
	return cfg
}

// traces generates the cell's input, one trace per core, exactly as
// dolos-sim does for the same options.
func (w workload) traces(seed int64) []*trace.Trace {
	if w.cores <= 1 {
		return []*trace.Trace{w.app.Generate(whisper.Params{Transactions: w.txns, Seed: seed, ReadPercent: w.readPct})}
	}
	trs := make([]*trace.Trace, w.cores)
	for i := range trs {
		trs[i] = w.app.Generate(whisper.Params{
			Transactions: w.txns, Seed: mcore.CoreSeed(seed, i),
			HeapBase: mcore.CoreHeapBase(i), ReadPercent: w.readPct,
		})
	}
	return trs
}

// machine is what a cell drives. The single-core cpu.System and the
// multi-core mcore.System expose the same parts in different shapes.
type machine struct {
	eng     *sim.Engine
	dev     *nvm.Device
	ctrl    *controller.Controller
	hiers   []*cache.Hierarchy
	start   func()
	done    func() bool
	collect func() cpu.Result
}

func (w workload) build(cfg controller.Config, seed int64, trs []*trace.Trace) machine {
	if w.cores <= 1 {
		s := cpu.NewSystem(cfg)
		return machine{
			eng: s.Eng, dev: s.Dev, ctrl: s.Ctrl, hiers: []*cache.Hierarchy{s.Hier},
			start:   func() { s.Start(trs[0]) },
			done:    s.Finished,
			collect: func() cpu.Result { return s.Collect(trs[0]) },
		}
	}
	specs := make([]mcore.CoreSpec, len(trs))
	for i, tr := range trs {
		specs[i] = mcore.CoreSpec{Workload: w.app.Name(), Seed: mcore.CoreSeed(seed, i), Trace: tr}
	}
	s := mcore.NewSystem(mcore.Config{Ctrl: cfg, Window: w.window}, specs)
	m := machine{eng: s.Eng, dev: s.Dev, ctrl: s.Ctrl, start: s.Start, collect: s.Collect}
	for _, c := range s.Cores {
		m.hiers = append(m.hiers, c.Hier())
	}
	m.done = func() bool {
		for _, c := range s.Cores {
			if !c.Finished() {
				return false
			}
		}
		return true
	}
	return m
}
