package service

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// lruCache is the bounded result cache: canonical request key → encoded
// result bytes. Entries are immutable once inserted (callers share the
// byte slice read-only), eviction is least-recently-used, and Get
// promotes. Every entry carries the SHA-256 of its bytes, verified on
// every Get: a corrupted entry (bit rot, a stray write) is dropped and
// reported as a miss, so the worst a corruption can cost is one
// recomputation — never a wrong result served. It is safe for concurrent use.
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
	val []byte
	sum [sha256.Size]byte
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, m: make(map[string]*list.Element), l: list.New()}
}

// Get returns the cached bytes and promotes the entry. An entry whose
// checksum fails verification is evicted and reported as a miss.
func (c *lruCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*lruEntry)
	if sha256.Sum256(e.val) != e.sum {
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
func (c *lruCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*lruEntry)
		e.val = val
		e.sum = sha256.Sum256(val)
		c.l.MoveToFront(el)
		return
	}
	c.m[key] = c.l.PushFront(&lruEntry{key: key, val: val, sum: sha256.Sum256(val)})
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
