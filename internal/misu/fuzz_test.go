package misu

import (
	"errors"
	"testing"

	"dolos/internal/wpq"
)

// FuzzDrainRecover drives a unit of one design and size through an op
// sequence (the driver's (op, arg) pairs), drains it, XORs one byte of
// the drain region with a mask, and recovers. The oracle:
//
//   - untampered (mask 0): Recover returns exactly the live writes;
//   - a tampered record or MAC-block byte of a live slot, or any record
//     byte on Full-WPQ (its tree covers every slot): Recover returns a
//     *RecoveryError;
//   - a tampered byte that no check covers and Recover does not read (a
//     cleared slot's record or MAC on Partial/Post, Full-WPQ's unused
//     MAC blocks): the live writes come back exactly;
//   - a tampered header byte: no panic, and every write returned is the
//     decrypted record of some slot. This is weaker than detection: no
//     MAC covers the live bitmap (DESIGN.md §5), so clearing a live bit
//     drops that write, setting a cleared slot's bit replays its older
//     write, and on Full-WPQ setting a never-written slot's bit returns
//     its zero record, all without an error.
func FuzzDrainRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, design uint8, hw uint16, ops []byte, at uint32, mask byte) {
		d := Design(design % 3)
		n := d.Entries(1 + int(hw)%1024)
		if len(ops) > 512 {
			ops = ops[:512]
		}
		u, dev := newUnit(d, n)
		dr := newDriver(t, u)
		for i := 0; i+1 < len(ops); i += 2 {
			dr.step(ops[i], ops[i+1])
		}
		u.Drain()

		live := make([]bool, n)
		records := map[RecoveredWrite]bool{}
		for i := range live {
			e := u.Queue().Entry(i)
			live[i] = e.Valid && !e.Cleared
			a, p := u.DecryptSlot(i)
			records[RecoveredWrite{Addr: a, Plain: p}] = true
		}

		hdr := drainHeaderBytes(n)
		recEnd := hdr + uint64(n)*wpq.EntryDataSize
		off := uint64(at) % DrainRegionBytes(n)
		if mask != 0 {
			b := make([]byte, 1)
			dev.Read(1<<20+off, b)
			b[0] ^= mask
			dev.Write(1<<20+off, b)
		}
		rec, err := u.Recover()

		var detect bool
		switch {
		case mask == 0:
		case off < hdr:
			var re *RecoveryError
			if err != nil && !errors.As(err, &re) {
				t.Fatalf("header tamper: %v", err)
			}
			for _, w := range rec {
				if !records[w] {
					t.Fatalf("header tamper at byte %d returned %#x, which no slot holds", off, w.Addr)
				}
			}
			return
		case off < recEnd:
			detect = d == FullWPQ || live[(off-hdr)/wpq.EntryDataSize]
		default:
			slot := int((off - recEnd) / 8)
			detect = d != FullWPQ && slot < n && live[slot]
		}
		if detect {
			var re *RecoveryError
			if !errors.As(err, &re) {
				t.Fatalf("tampered byte %d of a %d-entry %v image: got %v, want a RecoveryError", off, n, d, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("byte %d, mask %#x, of a %d-entry %v image: %v", off, mask, n, d, err)
		}
		dr.checkLive(rec)
	})
}
