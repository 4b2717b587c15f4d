package dense

import (
	"runtime"
	"testing"
)

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

// mustPanic fails t unless f panics with a rangeError.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if _, ok := recover().(rangeError); !ok {
			t.Errorf("%s did not panic with a rangeError", what)
		}
	}()
	f()
}

func TestIndexPastLenPanics(t *testing.T) {
	// Len is not a chunk multiple: the indices between Len and the end
	// of the last chunk are out of range too.
	n := uint64(chunkLen + 10)
	tb := NewTable[int](n)
	tb.Set(n-1, 1)
	for _, i := range []uint64{n, n + 1, 2*chunkLen - 1, 2 * chunkLen, 1 << 40} {
		mustPanic(t, "Get", func() { tb.Get(i) })
		mustPanic(t, "Ptr", func() { tb.Ptr(i) })
		mustPanic(t, "Set", func() { tb.Set(i, 1) })
	}
	if got := len(tb.chunks); got != 2 {
		t.Fatalf("directory has %d slots after out-of-range writes, want 2", got)
	}
	visited := 0
	tb.Range(func(i uint64, v *int) bool { visited++; return true })
	if visited != 10 {
		t.Fatalf("Range visited %d slots, want the tail chunk's 10", visited)
	}
}

func TestPastMaterializedEnd(t *testing.T) {
	tb := NewTable[uint64](1 << 28)
	// Nothing written: no directory at all.
	if tb.Get(1<<28-1) != 0 || tb.Get(0) != 0 {
		t.Fatal("empty table reads nonzero")
	}
	tb.Range(func(i uint64, v *uint64) bool { t.Fatalf("Range on an empty table visited %d", i); return false })
	tb.Reset()

	tb.Set(7, 8)
	end := uint64(len(tb.chunks)) << chunkShift
	if end == 0 || end >= tb.Len() {
		t.Fatalf("directory covers %d indices, want a prefix of %d", end, tb.Len())
	}
	for _, i := range []uint64{end, end + chunkLen + 3, 1<<28 - 1} {
		if got := tb.Get(i); got != 0 {
			t.Fatalf("Get(%d) past the directory = %d, want 0", i, got)
		}
	}
	visits := 0
	tb.RangeIn(end, tb.Len(), func(i uint64, v *uint64) bool { visits++; return true })
	if visits != 0 {
		t.Fatalf("RangeIn past the directory visited %d slots", visits)
	}
	tb.RangeIn(0, tb.Len(), func(i uint64, v *uint64) bool { visits++; return true })
	if visits != chunkLen {
		t.Fatalf("RangeIn over the whole table visited %d slots, want one chunk's %d", visits, chunkLen)
	}
	tb.Reset()
	if tb.Get(7) != 0 || tb.Get(end) != 0 {
		t.Fatal("Reset left values behind")
	}
	tb.Range(func(i uint64, v *uint64) bool { t.Fatalf("Range after Reset visited %d", i); return false })
}

func TestDirectoryGrowth(t *testing.T) {
	tb := NewTable[bool](1 << 28)
	if tb.chunks != nil {
		t.Fatalf("a large table starts with a %d-slot directory, want none", len(tb.chunks))
	}
	tb.Set(0, true)
	if got := len(tb.chunks); got != minDir {
		t.Fatalf("first directory has %d slots, want %d", got, minDir)
	}
	idx := []uint64{0, minDir << chunkShift, 5000 << chunkShift, 1<<28 - 1}
	for _, i := range idx {
		tb.Set(i, true)
	}
	if got := len(tb.chunks); got != 1<<16 {
		t.Fatalf("directory has %d slots after a write to the last index, want %d", got, 1<<16)
	}
	for _, i := range idx {
		if !tb.Get(i) {
			t.Fatalf("Get(%d) lost its value across grows", i)
		}
	}

	// Writing chunk after chunk regrows the directory only a
	// logarithmic number of times. Zero-size values allocate no chunks.
	seq := NewTable[struct{}](1 << 28)
	grows := 0
	for ci := uint64(0); ci < 1<<16; ci++ {
		before := cap(seq.chunks)
		seq.Set(ci<<chunkShift, struct{}{})
		if got := uint64(len(seq.chunks)); got != max(ci+1, minDir) {
			t.Fatalf("directory has %d slots after a write to chunk %d, want %d", got, ci, max(ci+1, minDir))
		}
		if cap(seq.chunks) != before {
			grows++
		}
	}
	if grows > 20 {
		t.Fatalf("directory regrew %d times on its way to 65536 slots", grows)
	}

	small := NewTable[bool](3 * chunkLen)
	if got := len(small.chunks); got != 3 {
		t.Fatalf("a 3-chunk table's directory has %d slots, want 3", got)
	}
}

func TestRangeVisitsChunkGrownAhead(t *testing.T) {
	tb := NewTable[uint64](1 << 28)
	tb.Set(1, 1)
	ahead := uint64(1000<<chunkShift + 5) // past the first directory
	var got []uint64
	tb.Range(func(i uint64, v *uint64) bool {
		if i == 1 {
			tb.Set(ahead, 2)
		}
		if *v != 0 {
			got = append(got, i)
		}
		return true
	})
	if len(got) != 2 || got[0] != 1 || got[1] != ahead {
		t.Fatalf("Range found %v, want [1 %d]", got, ahead)
	}
}

func TestNewTableAllocatesLittle(t *testing.T) {
	const n = 100
	keep := make([]*Table[uint64], n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewTable[uint64](1 << 28)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / n; b >= 1024 {
		t.Fatalf("NewTable(1<<28) allocates %d bytes, want under 1 KB", b)
	}
}
