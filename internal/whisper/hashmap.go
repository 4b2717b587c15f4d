package whisper

import "dolos/internal/trace"

// Hashmap is the WHISPER persistent hashmap: chained buckets, each
// insert/update a durable transaction writing the value payload plus the
// chain linkage.
type Hashmap struct{}

// Name implements Workload.
func (Hashmap) Name() string { return "Hashmap" }

const hashmapBuckets = 4096

// hashNode layout (one line):
//
//	+0  key
//	+8  next node addr (0 = end)
//	+16 value addr
//	+24 value length
type hashmapState struct {
	*session
	buckets uint64 // address of the bucket pointer array
}

func hashKey(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return key
}

func (m *hashmapState) bucketAddr(key uint64) uint64 {
	return m.buckets + (hashKey(key)%hashmapBuckets)*8
}

// lookup walks the chain, returning the node holding key and its
// predecessor link address (bucket slot or previous node's next field).
func (m *hashmapState) lookup(key uint64) (node, prevLink uint64) {
	m.compute(80) // hash + index arithmetic
	link := m.bucketAddr(key)
	node = m.heap.ReadU64(link)
	for node != 0 {
		m.compute(20)
		if m.heap.ReadU64(node) == key {
			return node, link
		}
		link = node + 8
		node = m.heap.ReadU64(link)
	}
	return 0, link
}

// put inserts or updates key with a payload value.
func (m *hashmapState) put(key uint64) {
	node, link := m.lookup(key)
	val := m.payload(key)
	m.tx.Begin()
	if node != 0 {
		// Update in place: the old payload must be undo-logged.
		vaddr := m.heap.ReadU64(node + 16)
		m.tx.Store(vaddr, val)
	} else {
		vaddr := m.heap.Alloc(uint64(len(val)))
		naddr := m.heap.Alloc(32)
		m.tx.StoreFresh(vaddr, val)
		m.tx.StoreFreshU64(naddr, key)
		m.tx.StoreFreshU64(naddr+8, m.heap.ReadU64(link))
		m.tx.StoreFreshU64(naddr+16, vaddr)
		m.tx.StoreFreshU64(naddr+24, uint64(len(val)))
		m.tx.StoreU64(link, naddr) // the only logged line on insert
	}
	m.tx.Commit()
}

// del unlinks key if present.
func (m *hashmapState) del(key uint64) {
	node, link := m.lookup(key)
	if node == 0 {
		return
	}
	next := m.heap.ReadU64(node + 8)
	m.tx.Begin()
	m.tx.StoreU64(link, next)
	m.tx.Commit()
}

// Generate implements Workload.
func (Hashmap) Generate(p Params) *trace.Trace {
	s := newSession(Hashmap{}, p)
	m := &hashmapState{session: s}
	m.buckets = s.heap.Alloc(hashmapBuckets * 8)

	keyRange := uint64(s.p.Warmup + s.p.Transactions*2)
	for i := 0; i < s.p.Warmup; i++ {
		m.put(s.rng.Uint64() % keyRange)
	}
	s.record()
	for i := 0; i < s.p.Transactions; i++ {
		key := s.rng.Uint64() % keyRange
		if s.rng.Intn(10) == 0 {
			m.del(key)
			// Deletes are cheap; still a durable transaction. Pair with
			// an insert so every measured iteration writes a payload,
			// keeping the per-transaction size meaningful.
			m.put(s.rng.Uint64() % keyRange)
		} else {
			m.put(key)
		}
	}
	return s.rec.Finish()
}
