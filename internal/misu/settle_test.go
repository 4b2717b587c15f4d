package misu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/nvm"
	"dolos/internal/wpq"
)

// rootRegister returns the Full-WPQ root register as the hardware holds
// it: reading it is an observation, so the unit settles first.
func (u *Unit) rootRegister() crypt.MAC {
	u.settle()
	return u.root
}

var testAESKey, testMACKey = testKey("misu-aes-key-016"), testKey("misu-mac-key-016")

func testKey(s string) (k [16]byte) {
	copy(k[:], s)
	return k
}

// newCountingUnit is newUnit over a crypt.Counting provider, so a test
// can pin how many hashes the host computes.
func newCountingUnit(d Design, entries int) (*Unit, *nvm.Device, *crypt.Counting) {
	cnt := &crypt.Counting{Provider: crypt.NewEngine(testAESKey, testMACKey)}
	dev := nvm.NewDevice(nil, 1<<26, 0)
	return New(d, cnt, dev, 1<<20, entries), dev, cnt
}

func hashes(c *crypt.Counting) uint64 { return c.LineMACs + c.NodeMACs }

// The op codes of a driver step; each step is an (op, arg) byte pair.
const (
	opInsert   = iota // write line arg%driverLines (coalesces if live)
	opCoalesce        // rewrite the (arg % live)-th live line
	opComplete        // finish Post-WPQ's deferred MAC, if one is pending
	opFetch           // the Ma-SU fetches the oldest entry and clears it
	opInFlight        // the Ma-SU fetches the oldest entry and keeps it in flight
	opDrain           // drain without recovering: a mid-epoch observation
	opCycle           // power cycle: drain, recover, check the live set
	numOps
)

const driverLines = 96

// driver replays a byte-coded op sequence on a unit and keeps the
// oracle: live holds, per line, the value the WPQ still owes.
type driver struct {
	t    testing.TB
	u    *Unit
	live map[uint64][64]byte
	n    uint32 // values written so far, which make each value unique
}

func newDriver(t testing.TB, u *Unit) *driver {
	return &driver{t: t, u: u, live: map[uint64][64]byte{}}
}

func (d *driver) insert(addr uint64) {
	u := d.u
	if !u.CanAccept(addr) && u.DeferredPending() {
		d.complete()
	}
	if !u.CanAccept(addr) {
		return
	}
	d.n++
	var v [64]byte
	binary.LittleEndian.PutUint32(v[:], d.n)
	v[63] = byte(addr >> 6)
	u.Protect(addr, &v)
	d.live[addr] = v
}

func (d *driver) complete() {
	for i := 0; i < d.u.Queue().Size(); i++ {
		if d.u.Queue().Entry(i).MACPending {
			d.u.CompleteDeferredMAC(i)
		}
	}
}

func (d *driver) step(op, arg byte) {
	q := d.u.Queue()
	switch op % numOps {
	case opInsert:
		d.insert(uint64(int(arg)%driverLines+1) * 64)
	case opCoalesce:
		if q.Live() == 0 {
			return
		}
		k := int(arg) % q.Live()
		for i := 0; i < q.Size(); i++ {
			if e := q.Entry(i); e.Valid && !e.Cleared {
				if k == 0 {
					d.insert(e.Addr)
					return
				}
				k--
			}
		}
	case opComplete:
		d.complete()
	case opFetch, opInFlight:
		slot, ok := q.FetchOldest()
		if !ok {
			return
		}
		q.MarkFetched(slot)
		if op%numOps == opFetch {
			addr, _ := d.u.DecryptSlot(slot)
			q.Clear(slot)
			delete(d.live, addr)
		}
	case opDrain:
		d.u.Drain()
	case opCycle:
		d.u.Drain()
		d.recover()
	}
}

// recover runs Recover and checks it returns exactly the live set.
func (d *driver) recover() {
	d.t.Helper()
	rec, err := d.u.Recover()
	if err != nil {
		d.t.Fatalf("untampered recovery: %v", err)
	}
	d.checkLive(rec)
	d.live = map[uint64][64]byte{}
}

func (d *driver) checkLive(rec []RecoveredWrite) {
	d.t.Helper()
	if len(rec) != len(d.live) {
		d.t.Fatalf("recovered %d writes, %d are live", len(rec), len(d.live))
	}
	for _, w := range rec {
		if want, ok := d.live[w.Addr]; !ok || w.Plain != want {
			d.t.Fatalf("recovered %#x with a value that is not its live one", w.Addr)
		}
	}
}

// eagerImage builds the drain region a unit that hashed every MAC at
// insert would write, from the queue's entries and crypt alone: the
// live bitmap, every slot's record and, for Partial/Post, every slot's
// entry MAC (zero for a slot never written this epoch). Full-WPQ drains
// no MAC blocks, so on a fresh device that part stays zero.
func eagerImage(u *Unit, eng crypt.Provider) []byte {
	q := u.Queue()
	n := q.Size()
	hdr := drainHeaderBytes(n)
	img := make([]byte, DrainRegionBytes(n))
	macBase := hdr + uint64(n)*wpq.EntryDataSize
	for i := 0; i < n; i++ {
		e := q.Entry(i)
		if e.Valid && !e.Cleared {
			img[i/8] |= 1 << uint(i%8)
		}
		off := hdr + uint64(i)*wpq.EntryDataSize
		binary.LittleEndian.PutUint64(img[off:], e.Addr)
		copy(img[off+8:], e.Cipher[:])
		if u.Design() != FullWPQ && e.Valid {
			m := eng.LineMAC(&e.Cipher, e.Addr^wpqPageTag, e.Counter)
			copy(img[macBase+uint64(i)*8:], m[:])
		}
	}
	return img
}

// eagerRoot rebuilds the Full-WPQ root from scratch over the queue.
func eagerRoot(u *Unit, eng crypt.Provider) crypt.MAC {
	q := u.Queue()
	var roots []byte
	for g := 0; g*groupSize < q.Size(); g++ {
		var recs []byte
		for i := g * groupSize; i < (g+1)*groupSize && i < q.Size(); i++ {
			e := q.Entry(i)
			recs = binary.LittleEndian.AppendUint64(recs, e.Addr)
			recs = append(recs, e.Cipher[:]...)
		}
		m := eng.NodeMAC(recs, wpqPageTag|uint64(g))
		roots = append(roots, m[:]...)
	}
	roots = binary.LittleEndian.AppendUint64(roots, u.CounterRegister())
	return eng.NodeMAC(roots, wpqPageTag|1<<16)
}

// TestDrainMatchesEagerImage replays every prefix of a seeded op
// sequence on a fresh unit, drains, and compares the drain region byte
// for byte with the image eager hashing would write; for Full-WPQ it
// also compares the root register with a from-scratch rebuild. Then
// Recover must return exactly the live set.
func TestDrainMatchesEagerImage(t *testing.T) {
	ref := crypt.NewEngine(testAESKey, testMACKey)
	for _, tc := range []struct {
		d  Design
		hw int
	}{{FullWPQ, 16}, {PartialWPQ, 16}, {PostWPQ, 16}, {FullWPQ, 72}, {PartialWPQ, 128}} {
		t.Run(fmt.Sprintf("%v/%d", tc.d, tc.hw), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.d)*31 + int64(tc.hw)))
			ops := make([]byte, 2*160)
			for i := 0; i < len(ops); i += 2 {
				// Mostly inserts and fetches, so the queue fills, clears
				// and reuses its slots.
				ops[i] = []byte{opInsert, opInsert, opInsert, opCoalesce, opComplete,
					opFetch, opFetch, opInFlight, opDrain, opCycle}[rng.Intn(10)]
				ops[i+1] = byte(rng.Intn(256))
			}
			entries := tc.d.Entries(tc.hw)
			for p := 0; p <= len(ops); p += 2 {
				u, dev := newUnit(tc.d, entries)
				dr := newDriver(t, u)
				for i := 0; i < p; i += 2 {
					dr.step(ops[i], ops[i+1])
				}
				u.Drain()
				want := eagerImage(u, ref)
				got := make([]byte, len(want))
				dev.Read(1<<20, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("prefix of %d ops: drained image differs from the eager image", p/2)
				}
				if tc.d == FullWPQ && u.rootRegister() != eagerRoot(u, ref) {
					t.Fatalf("prefix of %d ops: root register differs from a rebuild", p/2)
				}
				dr.recover()
			}
		})
	}
}

// TestInsertComputesNoHash pins where the host hashes: Protect and
// CompleteDeferredMAC compute none, Drain computes exactly the MACs
// owed since the last settle, and MACOps still counts what the modelled
// hardware computes at each insert.
func TestInsertComputesNoHash(t *testing.T) {
	t.Run("Full", func(t *testing.T) {
		u, _, cnt := newCountingUnit(FullWPQ, 32) // 4 groups
		if hashes(cnt) != 0 || u.MACOps() != 5 {
			t.Fatalf("boot: %d hashes, %d modelled MACs", hashes(cnt), u.MACOps())
		}
		for i := uint64(1); i <= 5; i++ {
			u.Protect(i*64, lineRef(byte(i)))
		}
		if hashes(cnt) != 0 || u.MACOps() != 5+10 {
			t.Fatalf("inserts: %d hashes, %d modelled MACs", hashes(cnt), u.MACOps())
		}
		u.Drain() // every group is owed since boot, and the root
		if cnt.NodeMACs != 4+1 || cnt.LineMACs != 0 || u.MACOps() != 15 {
			t.Fatalf("first drain: %d node, %d line MACs", cnt.NodeMACs, cnt.LineMACs)
		}
		groups := map[int]bool{}
		for i := uint64(1); i <= 12; i++ {
			groups[u.Protect(i*1024, lineRef(byte(i)))/groupSize] = true
		}
		before := cnt.NodeMACs
		u.Drain()
		if got := cnt.NodeMACs - before; got != uint64(len(groups))+1 {
			t.Fatalf("second drain hashed %d MACs, %d groups and the root are owed", got, len(groups))
		}
		before = cnt.NodeMACs
		u.Drain()
		if cnt.NodeMACs != before {
			t.Fatal("a drain with nothing owed hashed")
		}
	})
	t.Run("Partial", func(t *testing.T) {
		u, _, cnt := newCountingUnit(PartialWPQ, 14)
		for i := uint64(1); i <= 5; i++ {
			u.Protect(i*64, lineRef(byte(i)))
		}
		u.Protect(64, lineRef(9)) // coalesces
		u.Protect(128, lineRef(9))
		if hashes(cnt) != 0 || u.MACOps() != 7 {
			t.Fatalf("inserts: %d hashes, %d modelled MACs", hashes(cnt), u.MACOps())
		}
		u.Drain()
		if cnt.LineMACs != 5 || cnt.NodeMACs != 0 || u.MACOps() != 7 {
			t.Fatalf("drain: %d line MACs for 5 owed slots", cnt.LineMACs)
		}
	})
	t.Run("Post", func(t *testing.T) {
		u, _, cnt := newCountingUnit(PostWPQ, 11)
		s := u.Protect(64, lineRef(1))
		u.CompleteDeferredMAC(s)
		u.Protect(128, lineRef(2)) // left pending for the drain
		if hashes(cnt) != 0 || u.MACOps() != 1 {
			t.Fatalf("inserts: %d hashes, %d modelled MACs", hashes(cnt), u.MACOps())
		}
		st := u.Drain()
		if st.DeferredMACs != 1 || cnt.LineMACs != 2 || u.MACOps() != 2 {
			t.Fatalf("drain: %+v, %d line MACs", st, cnt.LineMACs)
		}
	})
}

// TestRecoverChecksRootRegister pins that Full-WPQ recovery checks the
// root register as it stands, not as the last drain left it: an image
// drained before the latest insert is refused.
func TestRecoverChecksRootRegister(t *testing.T) {
	u, _ := newUnit(FullWPQ, 16)
	u.Protect(0x1000, lineRef(1))
	u.Drain()
	u.Protect(0x2000, lineRef(2))
	if _, err := u.Recover(); err == nil {
		t.Fatal("an image drained before the latest insert verified")
	}
}

// TestRecoverBeyond64Entries fills queues larger than one 64-bit header
// word, clears some entries, and checks every live write comes back.
func TestRecoverBeyond64Entries(t *testing.T) {
	for _, hw := range []int{72, 128, 1024} {
		for _, d := range []Design{FullWPQ, PartialWPQ, PostWPQ} {
			u, _ := newUnit(d, d.Entries(hw))
			dr := newDriver(t, u)
			for i := 0; i < u.Queue().Size(); i++ {
				dr.insert(uint64(i+1) * 64)
				if i%5 == 4 {
					dr.step(opFetch, 0)
				}
			}
			if n := u.Queue().Size(); n > 64 && !u.Queue().Entry(n-1).Valid {
				t.Fatalf("%v at %d: the last slot was never written", d, hw)
			}
			u.Drain()
			dr.recover()
		}
	}
	need := DrainRegionBytes(1024)
	for _, m := range []layout.Map{layout.Default(), layout.Small()} {
		if m.DrainBase+need > m.DeviceSize {
			t.Fatalf("a 1024-entry drain (%d B) overruns the drain region at %#x", need, m.DrainBase)
		}
	}
}
