// Command dolos-recover demonstrates the crash-consistency and security
// machinery end to end: run a workload, cut power at a chosen cycle,
// drain the WPQ on the ADR reserve, optionally let an adversary tamper
// with the NVM image, then recover and audit every accepted write.
//
// Usage:
//
//	dolos-recover -workload Hashmap -crash 50000
//	dolos-recover -scheme dolos-post -crash 20000 -recovery osiris
//	dolos-recover -crash 30000 -attack spoof     (recovery must fail)
package main

import (
	"flag"
	"fmt"
	"os"

	"dolos/internal/attack"
	"dolos/internal/cliutil"
	"dolos/internal/controller"
	"dolos/internal/crash"
	"dolos/internal/layout"
	"dolos/internal/sim"
	"dolos/internal/whisper"
)

func main() {
	workload := flag.String("workload", "Hashmap", "workload to run")
	scheme := flag.String("scheme", "dolos-partial", "controller scheme")
	crashAt := flag.Uint64("crash", 50000, "cycle to cut power at")
	txns := flag.Int("txns", 200, "transactions in the trace")
	recovery := flag.String("recovery", "anubis", "recovery mode: anubis or osiris")
	attackKind := flag.String("attack", "", "tamper with NVM before recovery: spoof, replay, relocate, wpq")
	flag.Parse()

	w, mode, err := checkFlags(*workload, *txns, *recovery)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-recover: %v\n", err)
		os.Exit(2)
	}
	sch, err := cliutil.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-recover: %v\n", err)
		os.Exit(2)
	}

	tr := w.Generate(whisper.Params{Transactions: *txns, TxSize: 512, Seed: 1, HeapSize: 32 << 20})

	lay := layout.Small()
	cfg := controller.Config{Scheme: sch, Layout: lay}
	cfg.AESKey, cfg.MACKey = cliutil.DemoKeys("recov")

	d, err := crash.NewDriver(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-recover: %v\n", err)
		os.Exit(1)
	}
	sys := d.System()

	// Run to the crash point and cut power.
	sys.Start(tr)
	sys.Eng.RunUntil(sim.Cycle(*crashAt))
	fmt.Printf("power failure at cycle %d\n", sys.Eng.Now())

	crashRep, err := sys.Ctrl.Crash()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-recover: ADR drain failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ADR drain: %d live WPQ entries, %d bytes flushed (budget %d)\n",
		crashRep.LiveEntries, crashRep.BytesFlushed,
		controller.StandardADR(sys.Ctrl.Config().HardwareWPQ).FlushBytes)

	if *attackKind != "" {
		adv := attack.New(sys.Dev, 42)
		switch *attackKind {
		case "spoof":
			adv.Spoof(lay.DataBase+4096, 64)
		case "relocate":
			adv.Relocate(lay.DataBase+4096, lay.DataBase+4160)
		case "wpq":
			adv.Spoof(lay.DrainBase+16, 8)
		case "replay":
			// Snapshot-now / restore-now is a no-op; flip a MAC to model
			// a stale-MAC replay on one line.
			adv.FlipBit(lay.MACBase+8, 0)
		default:
			fmt.Fprintf(os.Stderr, "dolos-recover: unknown attack %q\n", *attackKind)
			os.Exit(2)
		}
		for _, l := range adv.Log() {
			fmt.Printf("adversary: %s\n", l)
		}
	}

	recRep, err := sys.Ctrl.Recover(mode)
	if err != nil {
		fmt.Printf("recovery REJECTED the memory image: %v\n", err)
		if *attackKind != "" {
			fmt.Println("attack detected — system refused to boot on tampered state")
			return
		}
		os.Exit(1)
	}
	fmt.Printf("recovery ok: %d WPQ writes replayed, %d metadata blocks restored, %d lines verified\n",
		recRep.WPQReplayed, recRep.MaSU.ShadowRestored, recRep.MaSU.LinesVerified)
	if *attackKind != "" {
		fmt.Fprintln(os.Stderr, "dolos-recover: ATTACK WAS NOT DETECTED")
		os.Exit(1)
	}

	// Final scrub: re-verify the entire protected working set.
	lines, err := sys.Ctrl.MaSU().Audit()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-recover: post-recovery scrub failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("post-recovery scrub: %d lines clean\n", lines)
}

// checkFlags rejects a -txns outside the bounds dolos-sim accepts, a
// -recovery other than anubis or osiris and a -workload no spelling rule
// resolves (an error wrapping whisper.ErrUnknown, as dolos-sim reports
// it), and returns the workload and the recovery mode.
func checkFlags(workload string, txns int, recovery string) (whisper.Workload, controller.RecoveryMode, error) {
	if err := cliutil.CheckRange("-txns", txns, 1, cliutil.MaxTransactions); err != nil {
		return nil, 0, err
	}
	var mode controller.RecoveryMode
	switch recovery {
	case "anubis":
		mode = controller.AnubisRecovery
	case "osiris":
		mode = controller.OsirisRecovery
	default:
		return nil, 0, fmt.Errorf("-recovery %q: want anubis or osiris", recovery)
	}
	canon, err := whisper.Resolve(workload)
	if err != nil {
		return nil, 0, err
	}
	w, err := whisper.ByName(canon)
	return w, mode, err
}
