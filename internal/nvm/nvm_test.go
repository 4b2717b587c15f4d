package nvm

import (
	"testing"
	"testing/quick"

	"dolos/internal/sim"
)

func TestReadWriteRoundTrip(t *testing.T) {
	d := NewDevice(nil, 1<<20, 0)
	data := []byte("persistent payload")
	d.Write(100, data)
	got := make([]byte, len(data))
	d.Read(100, got)
	if string(got) != string(data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := NewDevice(nil, 1<<20, 0)
	buf := []byte{1, 2, 3, 4}
	d.Read(5000, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten memory read as %v", buf)
		}
	}
}

func TestCrossPageWrite(t *testing.T) {
	d := NewDevice(nil, 1<<20, 0)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	addr := uint64(PageSize - 50) // spans two pages
	d.Write(addr, data)
	got := make([]byte, 100)
	d.Read(addr, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
	if d.AllocatedPages() != 2 {
		t.Fatalf("allocated %d pages, want 2", d.AllocatedPages())
	}
}

func TestLineHelpersAlign(t *testing.T) {
	d := NewDevice(nil, 1<<20, 0)
	var line [LineSize]byte
	line[0] = 0xAB
	d.WriteLine(0x1010, line) // unaligned; should align down to 0x1000
	got := d.ReadLine(0x1000)
	if got[0] != 0xAB {
		t.Fatal("WriteLine did not align down")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := NewDevice(nil, 1<<12, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	d.Write(1<<12, []byte{1})
}

func TestSnapshotRestore(t *testing.T) {
	d := NewDevice(nil, 1<<20, 0)
	d.Write(0, []byte("old"))
	snap := d.Snapshot()
	d.Write(0, []byte("new"))
	buf := make([]byte, 3)
	d.Read(0, buf)
	if string(buf) != "new" {
		t.Fatalf("pre-restore = %q", buf)
	}
	d.Restore(snap)
	d.Read(0, buf)
	if string(buf) != "old" {
		t.Fatalf("post-restore = %q, want old (replay attack semantics)", buf)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	d := NewDevice(nil, 1<<20, 0)
	d.Write(0, []byte{1})
	snap := d.Snapshot()
	d.Write(0, []byte{2})
	if snap[0][0] != 1 {
		t.Fatal("snapshot mutated by later write")
	}
}

func TestClear(t *testing.T) {
	d := NewDevice(nil, 1<<20, 0)
	d.Write(0, []byte{9})
	d.Clear()
	buf := make([]byte, 1)
	d.Read(0, buf)
	if buf[0] != 0 || d.AllocatedPages() != 0 {
		t.Fatal("Clear did not erase contents")
	}
}

func TestTimedAccessLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, 1<<20, 4)
	var readDone, writeDone sim.Cycle
	d.AccessRead(0, func() { readDone = eng.Now() })
	d.AccessWrite(64, func() { writeDone = eng.Now() }) // different bank
	eng.Run(0)
	if readDone != ReadLatency {
		t.Fatalf("read completed at %d, want %d", readDone, ReadLatency)
	}
	if writeDone != WriteLatency {
		t.Fatalf("write completed at %d, want %d", writeDone, WriteLatency)
	}
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Fatalf("access counters %d/%d", d.Reads(), d.Writes())
	}
}

func TestSameBankSerializes(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, 1<<20, 4)
	bankStride := uint64(4 * LineSize) // same bank every 4 lines
	var first, second sim.Cycle
	d.AccessWrite(0, func() { first = eng.Now() })
	d.AccessWrite(bankStride, func() { second = eng.Now() })
	eng.Run(0)
	if second != first+WriteLatency {
		t.Fatalf("same-bank writes not serialized: %d then %d", first, second)
	}
}

func TestDifferentBanksParallel(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, 1<<20, 4)
	var times []sim.Cycle
	for i := uint64(0); i < 4; i++ {
		d.AccessWrite(i*LineSize, func() { times = append(times, eng.Now()) })
	}
	eng.Run(0)
	for _, ts := range times {
		if ts != WriteLatency {
			t.Fatalf("parallel bank writes completed at %v", times)
		}
	}
}

func TestReadReadyAt(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, 1<<20, 4)
	if got := d.ReadReadyAt(0); got != ReadLatency {
		t.Fatalf("idle ReadReadyAt = %d", got)
	}
	d.AccessWrite(0, nil)
	if got := d.ReadReadyAt(0); got != WriteLatency+ReadLatency {
		t.Fatalf("busy ReadReadyAt = %d", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	d := NewDevice(nil, 1<<22, 0)
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := uint64(addr) % (1<<22 - uint64(len(data)))
		d.Write(a, data)
		got := make([]byte, len(data))
		d.Read(a, got)
		return string(got) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The owner of a write-back region is called with the overlapping range
// before an access observes it, and only while it holds newer bytes; a
// partial flush leaves the rest of the region pending.
func TestWriteBackRegion(t *testing.T) {
	d := NewDevice(nil, 1<<20, 0)
	const lo, hi = 0x1000, 0x1100
	var calls [][2]uint64
	wb := d.SetWriteBack(lo, hi, func(a, b uint64) {
		calls = append(calls, [2]uint64{a, b})
		d.Write(a, []byte{0xAB}) // the owner's own write does not re-enter
	})
	d.ReadLine(0x1000)
	if len(calls) != 0 {
		t.Fatal("flushed a region with nothing pending")
	}
	wb.Mark()
	d.ReadLine(0x2000)
	if len(calls) != 0 {
		t.Fatal("flushed for an access outside the region")
	}
	var b [8]byte
	d.Read(0x10F8, b[:])
	d.Write(0x0FFC, make([]byte, 8))
	if len(calls) != 2 || calls[0] != [2]uint64{0x10F8, 0x1100} || calls[1] != [2]uint64{0x1000, 0x1004} {
		t.Fatalf("flush ranges %x, want the overlaps [10f8,1100) and [1000,1004)", calls)
	}
	d.Snapshot()
	if len(calls) != 3 || calls[2] != [2]uint64{lo, hi} {
		t.Fatalf("snapshot flushed %x, want the whole region", calls)
	}
	d.AllocatedPages()
	d.Clear()
	if len(calls) != 3 {
		t.Fatal("a full flush left the region pending")
	}
}

// A write guard is flushed before writes that overlap it, with the
// device's bytes still as they were, and never for reads; regions do
// not overlap, and each is flushed on its own.
func TestWriteGuard(t *testing.T) {
	d := NewDevice(nil, 1<<20, 0)
	d.Write(0x2000, []byte{1, 2, 3, 4})
	var seen []byte
	g := d.SetWriteGuard(0x2000, 0x3000, func(a, b uint64) {
		buf := make([]byte, 1)
		d.Read(a, buf)
		seen = append(seen, buf[0])
	})
	var wbCalls int
	wb := d.SetWriteBack(0x4000, 0x5000, func(uint64, uint64) { wbCalls++ })
	g.Mark()
	wb.Mark()
	d.ReadLine(0x2000)
	d.Snapshot()
	if len(seen) != 0 {
		t.Fatal("a read or snapshot flushed a write guard")
	}
	if wbCalls != 1 {
		t.Fatalf("snapshot flushed the write-back region %d times, want 1", wbCalls)
	}
	d.Write(0x2000, []byte{9})
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("guard saw %v, want the pre-write byte 1", seen)
	}
	g.Mark()
	d.Clear()
	if len(seen) != 2 {
		t.Fatal("Clear did not flush the write guard")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an overlapping region was accepted")
		}
	}()
	d.SetWriteBack(0x2FC0, 0x3040, func(uint64, uint64) {})
}
