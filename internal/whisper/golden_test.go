package whisper

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"dolos/internal/mcore"
	"dolos/internal/trace"
)

// goldenTraceSHA256 pins every byte the generators emit, over the cases
// goldenTraceCases lists. A change to the heap, the undo log, the
// recorder or any workload that alters one op, one checkpoint line or
// one header field changes it. Memory-layout work on trace generation
// must leave it as it is.
const goldenTraceSHA256 = "423bc647da7a67a3b62f66c31074e5db2128bc6bac8facc7546b2b245aca0ad6"

// goldenTraceCases lists the parameters every ByName workload is pinned
// at: three seeds, both YCSB mixes, a small and a large transaction
// size, and one per-core heap placed the way multi-core runs place it.
// TestGoldenTraces adds one Hashmap trace at the benchmark's size.
func goldenTraceCases() []Params {
	var ps []Params
	for seed := int64(1); seed <= 3; seed++ {
		for _, rp := range []int{0, 95} {
			for _, size := range []int{256, 2048} {
				ps = append(ps, Params{Transactions: 40, TxSize: size, Seed: seed, ReadPercent: rp})
			}
		}
	}
	ps = append(ps, Params{
		Transactions: 40, TxSize: 512, Seed: mcore.CoreSeed(2, 3), HeapBase: mcore.CoreHeapBase(3),
	})
	return ps
}

func hashTrace(h hash.Hash, tr *trace.Trace) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(tr.Name)))
	h.Write([]byte(tr.Name))
	put(uint64(tr.TxSize))
	put(uint64(tr.Transactions))
	put(uint64(len(tr.InitImage)))
	for i := range tr.InitImage {
		put(tr.InitImage[i].Addr)
		h.Write(tr.InitImage[i].Data[:])
	}
	put(uint64(len(tr.Ops)))
	for i := range tr.Ops {
		op := &tr.Ops[i]
		put(uint64(op.Kind))
		put(op.Addr)
		put(uint64(op.Cycles))
		h.Write(op.Data[:])
	}
}

func TestGoldenTraces(t *testing.T) {
	h := sha256.New()
	names := append(Names(), MicroNames()...)
	for _, name := range names {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range goldenTraceCases() {
			hashTrace(h, w.Generate(p))
		}
	}
	hashTrace(h, Hashmap{}.Generate(Params{Transactions: 1000, Seed: 1000}))
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTraceSHA256 {
		t.Fatalf("trace bytes changed: sha256 %s, pinned %s", got, goldenTraceSHA256)
	}
}
