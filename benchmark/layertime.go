package main

import (
	"fmt"
	"time"

	"dolos/internal/cache"
	"dolos/internal/cliutil"
	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/trace"
	"dolos/internal/wpq"
)

// wpqDepth is the occupancy the WPQ timing loop keeps its queue at.
const wpqDepth = 8

// timeLayers times direct calls into single layers, outside the event
// loop, on one of the workload's traces: its flushed lines for the write
// paths, its reads for the read path, all its memory accesses for the
// cache. Each timing gets an equal part of budget and makes at least one
// pass over its inputs; it reports the median over passes of host ns per
// call.
func timeLayers(w workload, tr *trace.Trace, budget time.Duration) (map[string]float64, error) {
	var flushes []trace.Op
	var reads, accesses []uint64
	for _, op := range tr.Ops {
		switch op.Kind {
		case trace.Flush:
			flushes = append(flushes, op)
		case trace.Read:
			reads = append(reads, op.Addr)
			accesses = append(accesses, op.Addr)
		case trace.Write:
			accesses = append(accesses, op.Addr)
		}
	}
	if len(flushes) == 0 || len(reads) == 0 {
		return nil, fmt.Errorf("layer timings: trace %s has %d flushes and %d reads", tr.Name, len(flushes), len(reads))
	}
	per := budget / 7
	out := make(map[string]float64)

	// Ma-SU: a fresh unit with the workload's tree kind and crypto mode,
	// loaded with the checkpoint image the way Start loads it.
	aesKey, macKey := cliutil.DemoKeys("sim")
	eng := crypt.NewEngine(aesKey, macKey)
	var prov crypt.Provider = eng
	if w.fast {
		prov = crypt.NewFastEngine()
	}
	lay := layout.Default()
	u := masu.NewWithParams(w.tree, prov, nvm.NewDevice(nil, lay.DeviceSize, 0), lay, masu.Params{})
	for _, il := range tr.InitImage {
		u.ProcessWrite(il.Addr, il.Data, -1)
	}
	out["masu.process_write_ns"] = nsPerCall(per, len(flushes), func(i int) {
		u.ProcessWrite(flushes[i].Addr, flushes[i].Data, -1)
	})
	var readErr error
	out["masu.read_line_ns"] = nsPerCall(per, len(reads), func(i int) {
		if _, _, err := u.ReadLine(reads[i]); err != nil && readErr == nil {
			readErr = err
		}
	})
	if readErr != nil {
		return nil, fmt.Errorf("layer timings: masu read: %w", readErr)
	}

	// Crypto engine calls on the flushed lines.
	var pad crypt.Pad
	out["crypt.node_mac_ns"] = nsPerCall(per, len(flushes), func(i int) {
		eng.NodeMAC(flushes[i].Data[:], flushes[i].Addr)
	})
	out["crypt.line_mac_ns"] = nsPerCall(per, len(flushes), func(i int) {
		eng.LineMAC(&flushes[i].Data, flushes[i].Addr, uint64(i))
	})
	out["crypt.pad_ns"] = nsPerCall(per, len(flushes), func(i int) {
		a := flushes[i].Addr
		eng.GeneratePadInto(&pad, crypt.MakeIV(a/nvm.PageSize, uint16(a%nvm.PageSize/nvm.LineSize), uint64(i)))
	})

	l1 := cache.New("L1", cache.L1Size, cache.L1Ways, cache.DataLineSize)
	out["cache.access_ns"] = nsPerCall(per, len(accesses), func(i int) {
		l1.Access(accesses[i], i%2 == 0)
	})

	// One write's way through the WPQ at a steady occupancy.
	q := wpq.New(2 * wpqDepth)
	out["wpq.cycle_ns"] = nsPerCall(per, len(flushes), func(i int) {
		op := &flushes[i]
		slot, _, ok := q.Allocate(op.Addr)
		if !ok {
			panic("benchmark: WPQ timing loop overfilled its queue")
		}
		q.Commit(slot, wpq.Entry{Addr: op.Addr, Cipher: op.Data, Valid: true})
		if q.Live() >= wpqDepth {
			s, _ := q.FetchOldest()
			q.MarkFetched(s)
			q.Clear(s)
		}
	})
	return out, nil
}

// nsPerCall calls fn(0..n-1) in passes until budget is spent (at least
// one pass) and returns the median over passes of ns per call.
func nsPerCall(budget time.Duration, n int, fn func(i int)) float64 {
	var perPass []float64
	start := time.Now()
	for len(perPass) == 0 || time.Since(start) < budget {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		perPass = append(perPass, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(perPass)
}
