package pmem

import (
	"math"
	"strings"
	"testing"

	"dolos/internal/trace"
)

// panicMessage runs f and returns the string it panicked with ("" if it
// returned normally).
func panicMessage(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			s, ok := r.(string)
			if !ok {
				t.Fatalf("panic value %T %v, want pmem's message", r, r)
			}
			msg = s
		}
	}()
	f()
	return ""
}

func TestUntouchedLinesReadZero(t *testing.T) {
	const base, size = 1 << 20, 8 << 20
	h := NewHeap(base, size, nil)
	a := h.Alloc(64)
	h.WriteU64(a, 7)
	// A line near the end of the heap lies far past the backing a single
	// write needs.
	far := uint64(base + size - LineSize)
	if uint64(len(h.mem)) > far-base {
		t.Fatalf("backing already %d bytes after one write", len(h.mem))
	}
	if h.Line(far) != ([64]byte{}) {
		t.Fatal("never-written line past the backing is not zero")
	}
	if got := h.ReadU64(far + 8); got != 0 {
		t.Fatalf("ReadU64 past the backing = %#x", got)
	}
	if h.Line(a+LineSize) != ([64]byte{}) {
		t.Fatal("never-written line inside the backing is not zero")
	}
	if h.ReadU64(a) != 7 {
		t.Fatal("write lost when the backing grew")
	}
}

func TestBackingGrowsWithUse(t *testing.T) {
	h := NewHeap(0, 48<<20, nil)
	if len(h.mem) != 0 {
		t.Fatalf("new heap backs %d bytes", len(h.mem))
	}
	a := h.Alloc(1 << 20)
	h.WriteU64(a+(1<<20)-8, 1)
	if n := len(h.mem); n < 1<<20 || n > 2<<20 {
		t.Fatalf("backing = %d bytes after touching the first MB", n)
	}
	// Capped at the heap size, even for a size that is not whole lines.
	small := NewHeap(0, 100, nil)
	small.Write(92, make([]byte, 8))
	if len(small.mem) != 100 {
		t.Fatalf("backing = %d bytes, want the 100-byte heap size", len(small.mem))
	}
}

func TestReserveBacksOnce(t *testing.T) {
	h := NewHeap(0, 1<<20, nil)
	a := h.Alloc(64)
	h.WriteU64(a, 9)
	h.Reserve(300<<10 + 1)
	if len(h.mem) != 300<<10+LineSize {
		t.Fatalf("backing = %d bytes after Reserve, want %d", len(h.mem), 300<<10+LineSize)
	}
	if h.ReadU64(a) != 9 {
		t.Fatal("Reserve lost a written word")
	}
	// Accesses inside the reservation leave it; one past it grows.
	h.WriteU64(300<<10, 1)
	if len(h.mem) != 300<<10+LineSize {
		t.Fatalf("backing = %d bytes after a write inside the reservation", len(h.mem))
	}
	h.Reserve(1) // never shrinks
	if len(h.mem) != 300<<10+LineSize {
		t.Fatalf("backing = %d bytes after a smaller Reserve", len(h.mem))
	}
	h.Reserve(8 << 20) // capped at the heap size
	if len(h.mem) != 1<<20 {
		t.Fatalf("backing = %d bytes, want the 1 MB heap size", len(h.mem))
	}
}

func TestSetLinePastBacking(t *testing.T) {
	// Recovery rebuilds a heap from NVM contents line by line, in any
	// order, with nothing allocated.
	const base, size = 1 << 20, 4 << 20
	h := NewHeap(base, size, nil)
	var line [64]byte
	line[0], line[63] = 0xAB, 0xCD
	far := uint64(base + 3<<20)
	h.SetLine(far+5, line)
	if h.Line(far) != line {
		t.Fatal("SetLine past the backing lost the line")
	}
	if h.Line(far-LineSize) != ([64]byte{}) || h.Line(base) != ([64]byte{}) {
		t.Fatal("SetLine disturbed other lines")
	}
}

func TestUsedImageIgnoresBacking(t *testing.T) {
	// The image lists the same lines whether or not the backing reaches
	// the end of the allocated part.
	h := NewHeap(1<<20, 4<<20, nil)
	a := h.Alloc(2 << 20) // allocated, mostly never touched
	h.WriteU64(a+64, 3)
	h.WriteU64(a+(512<<10), 4)
	if uint64(len(h.mem)) >= h.Used() {
		t.Fatalf("backing %d covers the %d allocated bytes; the test needs less", len(h.mem), h.Used())
	}
	img := h.UsedImage()
	if len(img) != 2 || img[0].Addr != a+64 || img[1].Addr != a+(512<<10) {
		t.Fatalf("image = %d lines %+v", len(img), img)
	}
	if img[0].Data[0] != 3 || img[1].Data[0] != 4 {
		t.Fatal("image content wrong")
	}
	if cap(img) != len(img) {
		t.Fatalf("image cap %d, len %d: not sized exactly", cap(img), len(img))
	}
	if NewHeap(0, 1<<20, nil).UsedImage() != nil {
		t.Fatal("empty heap has a non-nil image")
	}
}

func TestPanicMessages(t *testing.T) {
	h := NewHeap(0, 128, nil)
	h.Alloc(128)
	if got, want := panicMessage(t, func() { h.Alloc(1) }), "pmem: heap exhausted: 128 + 64 > 128"; got != want {
		t.Fatalf("exhaustion panic %q, want %q", got, want)
	}
	h = NewHeap(1<<20, 1<<20, trace.NewRecorder("p", 0))
	cases := []struct {
		name string
		f    func()
		want string
	}{
		{"below", func() { h.ReadU64(0) }, "pmem: access [0x0,+8) outside heap [0x100000,+1048576)"},
		{"past end", func() { h.ReadU64(2<<20 - 4) }, "pmem: access [0x1ffffc,+8) outside heap [0x100000,+1048576)"},
		{"line past end", func() { h.Line(2 << 20) }, "pmem: access [0x200000,+64) outside heap [0x100000,+1048576)"},
		{"flush past end", func() { h.Flush(2 << 20) }, "pmem: access [0x200000,+64) outside heap [0x100000,+1048576)"},
		{"longer than heap", func() { h.Write(1<<20, make([]byte, 2<<20)) }, "pmem: access [0x100000,+2097152) outside heap [0x100000,+1048576)"},
	}
	for _, c := range cases {
		if got := panicMessage(t, c.f); got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCheckDoesNotWrap(t *testing.T) {
	// addr+n wraps past 2^64 to a small number; the bound must still
	// refuse it with pmem's message, not a runtime bounds panic.
	h := NewHeap(1<<20, 1<<20, nil)
	for _, c := range []struct {
		addr uint64
		n    int
	}{
		{math.MaxUint64 - 7, 16},
		{math.MaxUint64 - 63, 64},
		{math.MaxUint64, 1},
	} {
		msg := panicMessage(t, func() { h.Read(c.addr, make([]byte, c.n)) })
		if !strings.HasPrefix(msg, "pmem: access [0xfff") {
			t.Errorf("Read(%#x, %d): panic %q, want pmem's out-of-heap message", c.addr, c.n, msg)
		}
	}
	// The largest in-bounds access still passes.
	h.Read(2<<20-8, make([]byte, 8))
}
