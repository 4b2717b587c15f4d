package whisper

import (
	"encoding/binary"

	"dolos/internal/trace"
)

// Redis models the WHISPER Redis port: a persistent dictionary driven by
// a SET/GET/DEL command mix, with per-command protocol processing
// (request parse, reply build) charged as compute. SETs are durable
// transactions through the dict; GETs generate read traffic.
type Redis struct{}

// Name implements Workload.
func (Redis) Name() string { return "Redis" }

const redisBuckets = 2048

// dictEntry layout (one line): +0 key hash, +8 next, +16 value addr,
// +24 value len, +32.. inline key bytes (up to 24).
type redisState struct {
	*session
	buckets uint64
}

// commandCost is the RESP parse + dispatch + reply cost per command.
const commandCost = 260

func (r *redisState) bucketAddr(h uint64) uint64 {
	return r.buckets + (h%redisBuckets)*8
}

func redisHash(key uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], key)
	h := uint64(14695981039346656037)
	for _, x := range b {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

func (r *redisState) find(key uint64) (entry, link uint64) {
	h := redisHash(key)
	link = r.bucketAddr(h)
	entry = r.heap.ReadU64(link)
	for entry != 0 {
		r.compute(18)
		if r.heap.ReadU64(entry) == h {
			return entry, link
		}
		link = entry + 8
		entry = r.heap.ReadU64(link)
	}
	return 0, link
}

// set executes SET key <payload>.
func (r *redisState) set(key uint64) {
	r.compute(commandCost)
	entry, link := r.find(key)
	val := r.payload(key)
	r.tx.Begin()
	if entry != 0 {
		r.tx.Store(r.heap.ReadU64(entry+16), val)
	} else {
		vaddr := r.heap.Alloc(uint64(len(val)))
		e := r.heap.Alloc(64)
		r.tx.StoreFresh(vaddr, val)
		r.tx.StoreFreshU64(e, redisHash(key))
		r.tx.StoreFreshU64(e+8, r.heap.ReadU64(link))
		r.tx.StoreFreshU64(e+16, vaddr)
		r.tx.StoreFreshU64(e+24, uint64(len(val)))
		r.tx.StoreU64(link, e)
	}
	r.tx.Commit()
}

// get executes GET key.
func (r *redisState) get(key uint64) {
	r.compute(commandCost)
	entry, _ := r.find(key)
	if entry == 0 {
		return
	}
	vaddr := r.heap.ReadU64(entry + 16)
	vlen := r.heap.ReadU64(entry + 24)
	if vlen > uint64(r.p.TxSize) {
		vlen = uint64(r.p.TxSize)
	}
	r.discard(vaddr, int(vlen))
}

// del executes DEL key.
func (r *redisState) del(key uint64) {
	r.compute(commandCost)
	entry, link := r.find(key)
	if entry == 0 {
		return
	}
	next := r.heap.ReadU64(entry + 8)
	r.tx.Begin()
	r.tx.StoreU64(link, next)
	r.tx.Commit()
}

// Generate implements Workload.
func (Redis) Generate(p Params) *trace.Trace {
	s := newSession(Redis{}, p)
	r := &redisState{session: s}
	r.buckets = s.heap.Alloc(redisBuckets * 8)

	keyRange := uint64(s.p.Warmup + s.p.Transactions*2)
	for i := 0; i < s.p.Warmup; i++ {
		r.set(s.rng.Uint64() % keyRange)
	}
	s.record()
	for i := 0; i < s.p.Transactions; i++ {
		key := s.rng.Uint64() % keyRange
		switch s.rng.Intn(10) {
		case 0: // 10% DEL (paired with a SET so every iteration persists)
			r.del(key)
			r.set(s.rng.Uint64() % keyRange)
		case 1, 2: // 20% GET
			r.get(key)
			r.set(s.rng.Uint64() % keyRange)
		default: // 70% SET
			r.set(key)
		}
	}
	return s.rec.Finish()
}
