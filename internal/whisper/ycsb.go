package whisper

import (
	"math/rand"

	"dolos/internal/trace"
)

// YCSB is the NStore:YCSB workload: a slotted key-value table driven by a
// zipfian-skewed 50/50 read/update mix (YCSB-A). Updates rewrite the
// record payload in place inside a durable transaction; the skew makes a
// hot set of records absorb most writes, which is why this workload shows
// the lowest WPQ pressure in Table 2 (hot lines coalesce in the WPQ and
// hot metadata stays cached).
type YCSB struct{}

// Name implements Workload.
func (YCSB) Name() string { return "NStore:YCSB" }

// Record layout: one header line (+0 key, +8 value addr, +16 generation)
// followed by the out-of-line payload.
type ycsbState struct {
	*session
	table   uint64 // record-pointer array
	records uint64 // number of populated records
}

func (y *ycsbState) slotAddr(i uint64) uint64 { return y.table + i*8 }

// populate fills record slot i.
func (y *ycsbState) populate(i uint64) {
	val := y.payload(i)
	rec := y.heap.Alloc(64)
	vaddr := y.heap.Alloc(uint64(len(val)))
	y.tx.Begin()
	y.tx.StoreFresh(vaddr, val)
	y.tx.StoreFreshU64(rec, i)
	y.tx.StoreFreshU64(rec+8, vaddr)
	y.tx.StoreU64(y.slotAddr(i), rec)
	y.tx.Commit()
}

// update rewrites record i's payload durably.
func (y *ycsbState) update(i uint64) {
	y.compute(150) // request parse + index probe
	rec := y.heap.ReadU64(y.slotAddr(i))
	vaddr := y.heap.ReadU64(rec + 8)
	gen := y.heap.ReadU64(rec + 16)
	val := y.payload(i ^ gen)
	y.tx.Begin()
	y.tx.Store(vaddr, val)
	y.tx.StoreU64(rec+16, gen+1)
	y.tx.Commit()
}

// read scans record i (read traffic only; recorded as a transaction
// marker so throughput counts match NStore's op accounting).
func (y *ycsbState) read(i uint64) {
	y.compute(150)
	rec := y.heap.ReadU64(y.slotAddr(i))
	y.discard(y.heap.ReadU64(rec+8), y.p.TxSize)
}

// Generate implements Workload.
func (YCSB) Generate(p Params) *trace.Trace {
	s := newSession(YCSB{}, p)
	y := &ycsbState{session: s}
	nRecords := uint64(p.withDefaults().Warmup)
	if nRecords < 64 {
		nRecords = 64
	}
	y.table = s.heap.Alloc(nRecords * 8)
	for i := uint64(0); i < nRecords; i++ {
		y.populate(i)
	}
	y.records = nRecords

	zipf := rand.NewZipf(s.rng, 1.2, 8, nRecords-1)
	s.record()
	if rp := s.p.ReadPercent; rp > 0 {
		// Explicit mix (e.g. 95 for YCSB-B): reads and updates drawn
		// independently; read-only iterations still count as
		// transactions via the op markers.
		for i := 0; i < s.p.Transactions; i++ {
			key := zipf.Uint64()
			if s.rng.Intn(100) < rp {
				s.rec.TxBegin()
				y.read(key)
				s.rec.TxEnd()
			} else {
				y.update(key)
			}
		}
		return s.rec.Finish()
	}
	for i := 0; i < s.p.Transactions; i++ {
		key := zipf.Uint64()
		if s.rng.Intn(2) == 0 {
			y.update(key)
		} else {
			y.read(key)
			// Keep the measured trace write-balanced the way NStore's
			// 50/50 mix still persists every other op.
			y.update(zipf.Uint64())
		}
	}
	return s.rec.Finish()
}
