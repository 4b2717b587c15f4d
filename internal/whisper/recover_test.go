package whisper

import (
	"errors"
	"testing"

	"dolos/internal/pmem"
)

// heapReader adapts a functional pmem.Heap to ReadLineFunc (no secure
// memory involved; structural logic only).
func heapReader(h *pmem.Heap) ReadLineFunc {
	return func(addr uint64) ([64]byte, error) {
		return h.Line(addr), nil
	}
}

func buildHashmap(t *testing.T, n int) (*hashmapState, Params) {
	t.Helper()
	p := Params{Transactions: 1, Warmup: 1, TxSize: 256, Seed: 1, HeapSize: 32 << 20}
	s := newSession(Hashmap{}, p)
	m := &hashmapState{session: s}
	m.buckets = s.heap.Alloc(hashmapBuckets * 8)
	for i := 0; i < n; i++ {
		m.put(uint64(i) * 13)
	}
	return m, p
}

func TestWalkRecoveredHashmap(t *testing.T) {
	m, p := buildHashmap(t, 300)
	p = p.withDefaults()
	rep, err := WalkRecoveredHashmap(heapReader(m.heap), StructureBase(p), p.HeapBase, p.HeapSize)
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if rep.Entries != 300 {
		t.Fatalf("entries = %d, want 300", rep.Entries)
	}
	if rep.Buckets == 0 || rep.MaxChain == 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
}

func TestWalkDetectsDanglingPointer(t *testing.T) {
	m, p := buildHashmap(t, 50)
	p = p.withDefaults()
	// Corrupt one bucket pointer to point outside the heap.
	m.heap.WriteU64(m.buckets+8*uint64(hashKey(13)%hashmapBuckets), p.HeapBase+p.HeapSize+64)
	_, err := WalkRecoveredHashmap(heapReader(m.heap), StructureBase(p), p.HeapBase, p.HeapSize)
	if err == nil {
		t.Fatal("dangling pointer not detected")
	}
}

func TestWalkDetectsWrongBucket(t *testing.T) {
	m, p := buildHashmap(t, 50)
	p = p.withDefaults()
	// Splice a node into the wrong bucket: move bucket b1's chain head
	// into empty bucket b2 (relocation at the structure level).
	var b1, b2 uint64
	found := false
	for b := uint64(0); b < hashmapBuckets && !found; b++ {
		if m.heap.ReadU64(m.buckets+b*8) != 0 {
			for c := uint64(0); c < hashmapBuckets; c++ {
				if m.heap.ReadU64(m.buckets+c*8) == 0 {
					b1, b2 = b, c
					found = true
					break
				}
			}
		}
	}
	if !found {
		t.Skip("no suitable bucket pair")
	}
	m.heap.WriteU64(m.buckets+b2*8, m.heap.ReadU64(m.buckets+b1*8))
	m.heap.WriteU64(m.buckets+b1*8, 0)
	_, err := WalkRecoveredHashmap(heapReader(m.heap), StructureBase(p), p.HeapBase, p.HeapSize)
	if err == nil {
		t.Fatal("wrong-bucket splice not detected")
	}
}

func TestWalkPropagatesReadErrors(t *testing.T) {
	m, p := buildHashmap(t, 20)
	p = p.withDefaults()
	boom := errors.New("integrity violation")
	failing := func(addr uint64) ([64]byte, error) {
		if addr >= StructureBase(p)+64 {
			return [64]byte{}, boom
		}
		return m.heap.Line(addr), nil
	}
	if _, err := WalkRecoveredHashmap(failing, StructureBase(p), p.HeapBase, p.HeapSize); err == nil {
		t.Fatal("read errors swallowed")
	}
}

func TestResolveRecoveredLog(t *testing.T) {
	p := Params{Transactions: 1, Warmup: 1, TxSize: 256, Seed: 1, HeapSize: 32 << 20}
	s := newSession(Hashmap{}, p)
	a := s.heap.Alloc(64)
	s.heap.WriteU64(a, 42)
	s.tx.Begin()
	s.tx.StoreU64(a, 99)
	// Crash before commit.
	restores, err := ResolveRecoveredLog(heapReader(s.heap), LogBase(p), LogCapacity(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(restores) != 1 || restores[0].Addr != a {
		t.Fatalf("restores = %+v", restores)
	}
}

func TestLayoutHelpersConsistent(t *testing.T) {
	p := Params{TxSize: 512}
	if StructureBase(p) <= LogBase(p) {
		t.Fatal("structure base not after log")
	}
	// The session's actual first post-log allocation matches.
	s := newSession(Hashmap{}, p)
	got := s.heap.Alloc(8)
	if got != StructureBase(p) {
		t.Fatalf("StructureBase = %#x, session allocates at %#x", StructureBase(p), got)
	}
}
