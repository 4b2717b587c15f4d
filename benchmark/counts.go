package main

import "dolos/internal/cpu"

// cellCounts reads a finished cell's simulated per-layer quantities from
// public accessors, keyed by metric name. They are a pure function of the
// cell's inputs, so a change that only speeds up the host must leave them
// identical. Multi-core cells sum cache and fence figures over cores.
func cellCounts(m machine, res cpu.Result, events uint64, ops, initLines int) map[string]float64 {
	st := m.ctrl.Stats()
	q := m.ctrl.Queue()
	cc, mc := m.ctrl.MetaCaches()
	out := map[string]float64{
		"trace.ops_per_cell":        float64(ops),
		"trace.init_lines_per_cell": float64(initLines),
		"sim.events_per_cell":       float64(events),
		"cache.mem_reads":           float64(res.MemReads),
		"wpq.write_requests":        float64(res.WriteRequests),
		"wpq.retry_per_kwr":         res.RetryPerKWR,
		"wpq.mean_occupancy":        res.WPQMeanOccupancy,
		"wpq.coalesce_ratio":        ratio(q.Coalesces(), q.Inserts()),
		"wpq.read_hits":             float64(res.WPQReadHits),
		"masu.counter_misses":       float64(st.Counter("masu.counter_misses").Value()),
		"masu.tree_misses":          float64(st.Counter("masu.tree_misses").Value()),
		"masu.serial_macs":          float64(st.Counter("masu.serial_macs").Value()),
		"masu.nvm_writes":           float64(st.Counter("masu.nvm_writes").Value()),
		"masu.ctr_cache_hit_ratio":  ratio(cc.Hits(), cc.Hits()+cc.Misses()),
		"masu.mt_cache_hit_ratio":   ratio(mc.Hits(), mc.Hits()+mc.Misses()),
		"nvm.reads":                 float64(m.dev.Reads()),
		"nvm.writes":                float64(m.dev.Writes()),
		"nvm.pages":                 float64(m.dev.AllocatedPages()),
		"mcore.prefetches":          float64(res.Prefetches),
	}

	var l1h, l1m, l2h, l2m, llch, llcm uint64
	for _, h := range m.hiers {
		l1h, l1m = l1h+h.L1().Hits(), l1m+h.L1().Misses()
		l2h, l2m = l2h+h.L2().Hits(), l2m+h.L2().Misses()
		llch, llcm = llch+h.LLC().Hits(), llcm+h.LLC().Misses()
	}
	out["cache.l1_hit_ratio"] = ratio(l1h, l1h+l1m)
	out["cache.l2_hit_ratio"] = ratio(l2h, l2h+l2m)
	out["cache.llc_hit_ratio"] = ratio(llch, llch+llcm)

	var misuMACs, misuDrains uint64
	if mi := m.ctrl.MiSU(); mi != nil {
		misuMACs, misuDrains = mi.MACOps(), mi.Drains()
	}
	out["misu.mac_ops"] = float64(misuMACs)
	out["misu.drains"] = float64(misuDrains)

	var writes, reads, bmtMACs, tocMACs uint64
	if ma := m.ctrl.MaSU(); ma != nil {
		writes, reads = ma.Writes(), ma.Reads()
		if t := ma.BMT(); t != nil {
			bmtMACs = t.MACOps()
		}
		if t := ma.ToC(); t != nil {
			tocMACs = t.MACOps()
		}
	}
	out["masu.writes"] = float64(writes)
	out["masu.reads"] = float64(reads)
	out["bmt.mac_ops_per_write"] = ratio(bmtMACs, writes)
	out["toc.mac_ops_per_write"] = ratio(tocMACs, writes)

	// Single-core results carry no per-core rows.
	coreCycles, arbWait, skew := uint64(res.Cycles), uint64(0), 0.0
	if len(res.PerCore) > 0 {
		coreCycles = 0
		lo, hi := res.PerCore[0].Cycles, res.PerCore[0].Cycles
		for _, pc := range res.PerCore {
			coreCycles += uint64(pc.Cycles)
			arbWait += pc.ArbWaitCycles
			lo, hi = min(lo, pc.Cycles), max(hi, pc.Cycles)
		}
		if hi > 0 {
			skew = float64(hi-lo) / float64(hi)
		}
	}
	out["cpu.fence_stall_share"] = ratio(uint64(res.FenceStalls), coreCycles)
	out["mcore.arb_wait_cycles"] = float64(arbWait)
	out["mcore.core_skew"] = skew
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
