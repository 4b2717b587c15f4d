// Command dolos-trace inspects the memory traces the workload generators
// produce: operation composition, flush/fence cadence, per-transaction
// footprints and line-reuse statistics. Useful when calibrating the
// model (DESIGN.md §7) or adding workloads.
//
// Usage:
//
//	dolos-trace -workload Hashmap -txsize 1024
//	dolos-trace -workload Redis -txns 500 -txsize 256
package main

import (
	"flag"
	"fmt"
	"os"

	"dolos/internal/cliutil"
	"dolos/internal/sim"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

func main() {
	workload := flag.String("workload", "Hashmap", "workload to generate")
	txns := flag.Int("txns", 200, "measured transactions")
	txSize := flag.Int("txsize", 1024, fmt.Sprintf("transaction payload bytes (%d-%d)", cliutil.MinTxSize, cliutil.MaxTxSize))
	seed := flag.Int64("seed", 1, "generator seed")
	save := flag.String("save", "", "write the generated trace to this file (gzipped gob)")
	load := flag.String("load", "", "inspect a previously saved trace instead of generating")
	dump := flag.Int("dump", 0, "print the first N operations")
	flag.Parse()

	w, err := checkFlags(*workload, *txns, *txSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-trace: %v\n", err)
		os.Exit(2)
	}
	var tr *trace.Trace
	if *load != "" {
		tr, err = trace.LoadFile(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dolos-trace: %v\n", err)
			os.Exit(1)
		}
	} else {
		if err := checkHeap(w, *txns, *txSize); err != nil {
			fmt.Fprintf(os.Stderr, "dolos-trace: %v\n", err)
			os.Exit(2)
		}
		tr = w.Generate(whisper.Params{Transactions: *txns, TxSize: *txSize, Seed: *seed})
	}
	if *save != "" {
		if err := tr.SaveFile(*save); err != nil {
			fmt.Fprintf(os.Stderr, "dolos-trace: save: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("saved trace to %s\n", *save)
	}
	c := tr.Count()

	fmt.Printf("workload       %s (txsize %dB, %d transactions)\n", tr.Name, tr.TxSize, tr.Transactions)
	fmt.Printf("ops            %d\n", len(tr.Ops))
	fmt.Printf("reads          %d (%.1f per tx)\n", c.Reads, per(c.Reads, tr.Transactions))
	fmt.Printf("writes         %d (%.1f per tx)\n", c.Writes, per(c.Writes, tr.Transactions))
	fmt.Printf("flushes        %d (%.1f per tx)\n", c.Flushes, per(c.Flushes, tr.Transactions))
	fmt.Printf("fences         %d (%.1f per tx)\n", c.Fences, per(c.Fences, tr.Transactions))
	fmt.Printf("compute        %d cycles (%.0f per tx, %.0f per flush)\n",
		c.ComputeCycles, per(int(c.ComputeCycles), tr.Transactions), per(int(c.ComputeCycles), c.Flushes))

	// Line-reuse: how often a flushed line repeats within the trace —
	// the coalescing opportunity.
	lines := map[uint64]int{}
	var flushBurst, burst, maxBurst int
	var computeBetweenFlushes []sim.Cycle
	var sinceFlush sim.Cycle
	for _, op := range tr.Ops {
		switch op.Kind {
		case trace.Flush:
			lines[op.Addr]++
			burst++
			if burst > maxBurst {
				maxBurst = burst
			}
			computeBetweenFlushes = append(computeBetweenFlushes, sinceFlush)
			sinceFlush = 0
		case trace.Fence:
			burst = 0
		case trace.Compute:
			sinceFlush += op.Cycles
		}
	}
	flushBurst = maxBurst
	reused := 0
	for _, n := range lines {
		if n > 1 {
			reused++
		}
	}
	var gapSum sim.Cycle
	for _, g := range computeBetweenFlushes {
		gapSum += g
	}
	fmt.Printf("distinct lines %d flushed, %d (%.1f%%) flushed more than once\n",
		len(lines), reused, 100*float64(reused)/float64(len(lines)))
	fmt.Printf("max flush burst between fences: %d lines\n", flushBurst)
	if len(computeBetweenFlushes) > 0 {
		fmt.Printf("mean compute between flushes: %.0f cycles\n",
			float64(gapSum)/float64(len(computeBetweenFlushes)))
	}

	if *dump > 0 {
		fmt.Printf("\nfirst %d operations:\n", *dump)
		for i, op := range tr.Ops {
			if i >= *dump {
				break
			}
			switch op.Kind {
			case trace.Compute:
				fmt.Printf("%6d  compute %d cycles\n", i, op.Cycles)
			case trace.Fence, trace.TxBegin, trace.TxEnd:
				fmt.Printf("%6d  %s\n", i, op.Kind)
			default:
				fmt.Printf("%6d  %-7s %#x\n", i, op.Kind, op.Addr)
			}
		}
	}
}

// checkHeap rejects a generation that could overflow the workload's
// persistent heap.
func checkHeap(w whisper.Workload, txns, txSize int) error {
	return whisper.CheckHeap(w, whisper.Params{Transactions: txns, TxSize: txSize})
}

// checkFlags rejects -txns and -txsize outside the bounds dolos-sim and
// the /v2 API accept and a -workload no spelling rule resolves (an error
// wrapping whisper.ErrUnknown, as dolos-sim reports it), and returns the
// workload.
func checkFlags(workload string, txns, txSize int) (whisper.Workload, error) {
	if err := cliutil.CheckRange("-txns", txns, 1, cliutil.MaxTransactions); err != nil {
		return nil, err
	}
	if err := cliutil.CheckRange("-txsize", txSize, cliutil.MinTxSize, cliutil.MaxTxSize); err != nil {
		return nil, err
	}
	canon, err := whisper.Resolve(workload)
	if err != nil {
		return nil, err
	}
	return whisper.ByName(canon)
}

func per(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
