package masu_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/scheme"
)

// TestWalkMemoMatchesFresh drives two units through the same random
// sequence of writes, reads, crashes with recovery, shadow wipes and
// shadow tampering. The second unit forgets its walk memo before every
// call, so it derives every block address, cache way and shadow entry
// afresh. Both must agree on every cost, read, report and error, and
// StateDiff, which skips the memo, must find their states identical
// after every crash, wipe and tamper, every tenth step and at the end. The metadata caches are tiny, so hinted lines are
// evicted and dirty victims persisted between writes to the same page,
// and most writes go to a few hot pages, so the memo is mostly hit.
func TestWalkMemoMatchesFresh(t *testing.T) {
	type setup struct {
		name     string
		kind     masu.TreeKind
		policy   masu.Policy
		recovery scheme.RecoveryStyle
	}
	var setups []setup
	for _, e := range bmtPolicies(t) {
		setups = append(setups, setup{e.Name, masu.BMTEager, e.Pipeline.Policy, e.Pipeline.Recovery})
	}
	setups = append(setups, setup{"lazy-ToC", masu.ToCLazy, masu.Policy{}, scheme.RecoverShadow})
	for _, s := range setups {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", s.name, seed), func(t *testing.T) {
				var aesKey, macKey [16]byte
				copy(aesKey[:], "memo-aes-key-016")
				copy(macKey[:], "memo-mac-key-016")
				eng := crypt.NewEngine(aesKey, macKey)
				lay := layout.Small()
				mk := func() *masu.Unit {
					return masu.NewWithParams(s.kind, eng, nvm.NewDevice(nil, lay.DeviceSize, 0), lay, masu.Params{
						CounterCacheBytes: 1 << 10,
						MTCacheBytes:      2 << 10,
						Policy:            s.policy,
					})
				}
				a, b := mk(), mk()
				rng := rand.New(rand.NewSource(seed))
				var pages []uint64
				for i := 0; i < 24; i++ {
					pages = append(pages, uint64(rng.Int63n(int64(lay.DataSpan/nvm.PageSize))))
				}
				addr := func() uint64 {
					p := pages[rng.Intn(len(pages))]
					if rng.Intn(4) != 0 {
						p = pages[rng.Intn(3)] // a hot page
					}
					return lay.DataBase + p*nvm.PageSize + uint64(rng.Intn(64))*64
				}
				// shadowBad records a wipe or a tamper since the units
				// started: Anubis recovery would then fail, so the BMT
				// recovers through Osiris instead, and a ToC recovery fails
				// and the units start again.
				shadowBad := false
				counts := map[string]int{}
				for step := 0; step < 1000; step++ {
					b.ForgetWalk()
					check := step%10 == 0
					var got, want string
					switch r := rng.Intn(100); {
					case r < 60:
						x := addr()
						var p [64]byte
						rng.Read(p[:])
						got, want = fmt.Sprint("write ", a.ProcessWrite(x, p, -1)), fmt.Sprint("write ", b.ProcessWrite(x, p, -1))
						counts["write"]++
					case r < 90:
						x := addr()
						la, ca, ea := a.ReadLine(x)
						lb, cb, eb := b.ReadLine(x)
						got, want = fmt.Sprint("read ", la, ca, ea), fmt.Sprint("read ", lb, cb, eb)
						counts["read"]++
					case r < 95:
						a.CrashVolatile()
						b.CrashVolatile()
						recover := (*masu.Unit).RecoverAnubis
						switch {
						case s.recovery == scheme.RecoverReconstruct:
							recover = (*masu.Unit).RecoverReconstruct
						case shadowBad && s.kind == masu.BMTEager:
							recover = (*masu.Unit).RecoverOsiris
						}
						ra, ea := recover(a)
						rb, eb := recover(b)
						got, want = fmt.Sprint("recover ", ra, ea), fmt.Sprint("recover ", rb, eb)
						counts["crash"]++
						check = true
						if ea != nil {
							// A failed recovery leaves no state to go on
							// from.
							counts["failed recovery"]++
							a, b, shadowBad = mk(), mk(), false
						}
					case r < 98:
						a.WipeShadow()
						b.WipeShadow()
						shadowBad, check = true, true
						counts["wipe"]++
					default:
						got, want = fmt.Sprint("tamper ", a.TamperShadow()), fmt.Sprint("tamper ", b.TamperShadow())
						shadowBad, check = true, true
						counts["tamper"]++
					}
					if got != want {
						t.Fatalf("step %d: the memo's unit returned %s, the fresh one %s", step, got, want)
					}
					if !check {
						continue
					}
					if d := masu.StateDiff(a, b); d != "" {
						t.Fatalf("step %d: the units' states differ at %s", step, d)
					}
				}
				if d := masu.StateDiff(a, b); d != "" {
					t.Fatalf("the units' final states differ at %s", d)
				}
				for _, k := range []string{"write", "read", "crash", "wipe", "tamper"} {
					if counts[k] == 0 {
						t.Fatalf("the sequence has no %s: %v", k, counts)
					}
				}
			})
		}
	}
}
