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
	d.AccessRead(0, func(uint64) { readDone = eng.Now() }, 0)
	d.AccessWrite(64, func(uint64) { writeDone = eng.Now() }, 0) // different bank
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
	d.AccessWrite(0, func(uint64) { first = eng.Now() }, 0)
	d.AccessWrite(bankStride, func(uint64) { second = eng.Now() }, 0)
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
		d.AccessWrite(i*LineSize, func(uint64) { times = append(times, eng.Now()) }, 0)
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
	d.AccessWrite(0, nil, 0)
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

// The owner's read and write of its own line reach the device's bytes
// without flushing; every other access to a pending region flushes it
// first. Regions do not overlap, and each is flushed on its own.
func TestWriteBackOwnerAccess(t *testing.T) {
	d := NewDevice(nil, 1<<20, 0)
	d.Write(0x2000, []byte{1, 2, 3, 4})
	var flushed []byte
	var wb *WriteBack
	wb = d.SetWriteBack(0x2000, 0x3000, func(a, b uint64) {
		line := wb.ReadLine(a)
		flushed = append(flushed, line[0])
		line[0] = 9
		d.Write(a&^63, line[:]) // the owner's own write does not re-enter
	})
	var otherCalls int
	other := d.SetWriteBack(0x4000, 0x5000, func(uint64, uint64) { otherCalls++ })
	wb.Mark()
	other.Mark()
	if got := wb.ReadLine(0x2003); got[0] != 1 || got[3] != 4 {
		t.Fatalf("owner read %v, want the device's bytes 1 2 3 4", got[:4])
	}
	if got := wb.ReadLine(0x2FC0); got != [LineSize]byte{} {
		t.Fatal("owner read of an unwritten line is not zero")
	}
	pages := d.allocated
	line := [LineSize]byte{5}
	wb.WriteLine(0x2FC0, &line)
	if got := wb.ReadLine(0x2FC0); got != line || d.allocated != pages {
		t.Fatalf("owner write read back %v with %d pages, want 5 on the same page count %d", got[:1], d.allocated, pages)
	}
	if len(flushed) != 0 || otherCalls != 0 {
		t.Fatal("an owner access flushed a region")
	}
	if got := d.ReadLine(0x2000); got[0] != 9 || len(flushed) != 1 || flushed[0] != 1 {
		t.Fatalf("a device read saw %d after flushes %v, want the flushed byte 9 after one flush of 1", got[0], flushed)
	}
	if otherCalls != 0 {
		t.Fatal("a read of one region flushed the other")
	}
	d.Snapshot()
	if otherCalls != 1 {
		t.Fatalf("snapshot flushed the other region %d times, want 1", otherCalls)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an owner read outside the region was accepted")
			}
		}()
		wb.ReadLine(0x3000)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an owner write outside the region was accepted")
			}
		}()
		wb.WriteLine(0x1FC0, &line)
	}()
	defer func() {
		if recover() == nil {
			t.Fatal("an overlapping region was accepted")
		}
	}()
	d.SetWriteBack(0x2FC0, 0x3040, func(uint64, uint64) {})
}
