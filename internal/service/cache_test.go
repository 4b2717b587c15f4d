package service

import (
	"bytes"
	"fmt"
	"testing"
)

// recs is a one-record cache value.
func recs(s string) [][]byte { return [][]byte{[]byte(s)} }

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU(2)
	c.Put("a", recs("A"))
	c.Put("b", recs("B"))
	c.Put("c", recs("C")) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry survived past capacity")
	}
	if v, ok := c.Get("b"); !ok || len(v) != 1 || !bytes.Equal(v[0], []byte("B")) {
		t.Error("recent entry lost")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestLRUGetPromotes(t *testing.T) {
	c := newLRU(2)
	c.Put("a", recs("A"))
	c.Put("b", recs("B"))
	c.Get("a")            // a is now most recent
	c.Put("c", recs("C")) // must evict b, not a
	if _, ok := c.Get("a"); !ok {
		t.Error("promoted entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("least-recent entry survived")
	}
}

func TestLRUPutRefreshes(t *testing.T) {
	c := newLRU(4)
	c.Put("a", recs("old"))
	c.Put("a", recs("new"))
	if v, _ := c.Get("a"); len(v) != 1 || !bytes.Equal(v[0], []byte("new")) {
		t.Errorf("refresh lost: %q", v)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d after double insert, want 1", c.Len())
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := newLRU(8)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%16)
				c.Put(k, recs(k))
				c.Get(k)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.Len() > 8 {
		t.Errorf("len = %d exceeds capacity 8", c.Len())
	}
}
