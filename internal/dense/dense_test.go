package dense

import "testing"

func TestGetZeroWithoutAllocating(t *testing.T) {
	tb := NewTable[uint64](10_000)
	if got := tb.Get(9_999); got != 0 {
		t.Fatalf("Get on untouched table = %d, want 0", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if tb.Get(123) != 0 {
			t.Fatal("unexpected value")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocated %v times per run, want 0", allocs)
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	tb := NewTable[uint64](1 << 20)
	// Straddle chunk boundaries on purpose.
	idx := []uint64{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 5*chunkLen + 7, 1<<20 - 1}
	for _, i := range idx {
		tb.Set(i, i*3+1)
	}
	for _, i := range idx {
		if got := tb.Get(i); got != i*3+1 {
			t.Fatalf("Get(%d) = %d, want %d", i, got, i*3+1)
		}
	}
	// Untouched slot in a touched chunk reads zero.
	if got := tb.Get(2); got != 0 {
		t.Fatalf("Get(2) = %d, want 0", got)
	}
}

func TestPtrStable(t *testing.T) {
	tb := NewTable[int](chunkLen * 4)
	p := tb.Ptr(42)
	*p = 7
	tb.Set(3*chunkLen, 9) // materialize another chunk
	if p != tb.Ptr(42) {
		t.Fatal("Ptr moved after another chunk materialized")
	}
	if tb.Get(42) != 7 {
		t.Fatal("value lost")
	}
}

func TestRangeOrderedAndFiltered(t *testing.T) {
	tb := NewTable[uint64](chunkLen * 8)
	want := []uint64{3, chunkLen + 1, 4 * chunkLen, 7*chunkLen + 5}
	for _, i := range want {
		tb.Set(i, i+1) // nonzero marker
	}
	var got []uint64
	tb.Range(func(i uint64, v *uint64) bool {
		if *v != 0 {
			got = append(got, i)
			if *v != i+1 {
				t.Fatalf("slot %d = %d, want %d", i, *v, i+1)
			}
		}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("Range order %v, want ascending %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tb := NewTable[int](chunkLen)
	tb.Set(0, 1)
	tb.Set(1, 1)
	n := 0
	tb.Range(func(i uint64, v *int) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("Range visited %d slots after stop, want 1", n)
	}
}

func TestReset(t *testing.T) {
	tb := NewTable[bool](chunkLen * 2)
	tb.Set(5, true)
	tb.Set(chunkLen+5, true)
	tb.Reset()
	if tb.Get(5) || tb.Get(chunkLen+5) {
		t.Fatal("Reset left values behind")
	}
	visited := false
	tb.Range(func(i uint64, v *bool) bool { visited = true; return true })
	if visited {
		t.Fatal("Range visited chunks after Reset")
	}
}

func TestPartialTailChunk(t *testing.T) {
	// A table whose capacity is not a chunk multiple must clamp Range
	// at Len, not at the chunk end.
	n := uint64(chunkLen + 10)
	tb := NewTable[int](n)
	tb.Set(n-1, 1)
	count := 0
	tb.Range(func(i uint64, v *int) bool {
		if i >= n {
			t.Fatalf("Range visited out-of-bounds index %d", i)
		}
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("tail chunk visited %d slots, want 10", count)
	}
}

func TestRangeIn(t *testing.T) {
	tb := NewTable[uint64](chunkLen * 8)
	for _, i := range []uint64{3, chunkLen - 1, chunkLen + 1, 4 * chunkLen, 7*chunkLen + 5} {
		tb.Set(i, i+1)
	}
	var got []uint64
	visits := 0
	tb.RangeIn(chunkLen-1, 4*chunkLen+1, func(i uint64, v *uint64) bool {
		visits++
		if i < chunkLen-1 || i >= 4*chunkLen+1 {
			t.Fatalf("RangeIn visited %d outside [%d, %d)", i, chunkLen-1, 4*chunkLen+1)
		}
		if *v != 0 {
			got = append(got, i)
		}
		return true
	})
	if want := []uint64{chunkLen - 1, chunkLen + 1, 4 * chunkLen}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("RangeIn found %v, want %v", got, want)
	}
	// Chunks 2 and 3 were never written: only chunk 0's last slot, all
	// of chunk 1 and chunk 4's first slot are visited.
	if visits != 1+chunkLen+1 {
		t.Fatalf("RangeIn visited %d slots, want %d", visits, 1+chunkLen+1)
	}
}
