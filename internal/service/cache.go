package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// lruCache is the bounded result cache: canonical request key → the
// job's per-cell compact RunRecords. Entries are immutable once inserted
// (callers share the slices read-only), eviction is least-recently-used,
// and Get promotes. Every entry carries a SHA-256 of its records,
// verified on every Get: a corrupted entry (bit rot, a stray write) is
// dropped and reported as a miss, so the worst a corruption can cost is
// one recomputation — never a wrong result served. It is safe for
// concurrent use.
type lruCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	l   *list.List // front = most recently used

	// onCorrupt, when set, is called (with the cache lock held) each
	// time Get drops an entry whose checksum no longer matches.
	onCorrupt func(key string)
}

type lruEntry struct {
	key string
	val [][]byte
	sum [sha256.Size]byte
}

// checksum hashes a result's records, each prefixed with its length, so
// a byte moved across a record boundary changes the sum too.
func checksum(recs [][]byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(n[:], uint64(len(r)))
		h.Write(n[:])
		h.Write(r)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, m: make(map[string]*list.Element), l: list.New()}
}

// Get returns the cached records and promotes the entry. An entry whose
// checksum fails verification is evicted and reported as a miss.
func (c *lruCache) Get(key string) ([][]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*lruEntry)
	if checksum(e.val) != e.sum {
		c.l.Remove(el)
		delete(c.m, key)
		if c.onCorrupt != nil {
			c.onCorrupt(key)
		}
		return nil, false
	}
	c.l.MoveToFront(el)
	return e.val, true
}

// Put inserts (or refreshes) an entry, evicting the least recently used
// entry when over capacity.
func (c *lruCache) Put(key string, val [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*lruEntry)
		e.val = val
		e.sum = checksum(val)
		c.l.MoveToFront(el)
		return
	}
	c.m[key] = c.l.PushFront(&lruEntry{key: key, val: val, sum: checksum(val)})
	for c.l.Len() > c.cap {
		oldest := c.l.Back()
		c.l.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}
