package service

import (
	"bytes"
	"testing"

	"dolos/internal/telemetry"
)

// recs is a one-record row value.
func recs(s string) [][]byte { return [][]byte{[]byte(s)} }

// put settles key's row with one record, as a flight's leader does.
func put(t *testing.T, tb *results, key, rec string) {
	t.Helper()
	e, leader := tb.claim(key)
	if !leader {
		t.Fatalf("claim(%q) found a row, want a new flight", key)
	}
	tb.publish(e, recs(rec), []byte(rec), nil)
}

// get returns key's settled records, or nil.
func get(tb *results, key string) [][]byte {
	if e := tb.lookup(key); e != nil && e.settled() {
		return e.recs
	}
	return nil
}

func TestLRUEvictsOldest(t *testing.T) {
	tb := newResults(2, nil)
	put(t, tb, "a", "A")
	put(t, tb, "b", "B")
	put(t, tb, "c", "C") // evicts a
	if get(tb, "a") != nil {
		t.Error("oldest row survived past capacity")
	}
	if v := get(tb, "b"); len(v) != 1 || !bytes.Equal(v[0], []byte("B")) {
		t.Error("recent row lost")
	}
	if tb.lru.Len() != 2 || len(tb.rows) != 2 {
		t.Errorf("%d settled rows, %d keys, want 2 and 2", tb.lru.Len(), len(tb.rows))
	}
}

func TestLRUGetPromotes(t *testing.T) {
	tb := newResults(2, nil)
	put(t, tb, "a", "A")
	put(t, tb, "b", "B")
	get(tb, "a")         // a is now most recent
	put(t, tb, "c", "C") // must evict b, not a
	if get(tb, "a") == nil {
		t.Error("promoted row evicted")
	}
	if get(tb, "b") != nil {
		t.Error("least-recent row survived")
	}
}

// TestLRUPutRefreshes: a key has one row. The only way a settled row is
// replaced is a failed checksum, which drops it so the next claim leads
// a new flight; the table then holds the new records, once.
func TestLRUPutRefreshes(t *testing.T) {
	reg := telemetry.NewRegistry()
	tb := newResults(4, reg.Counter("corrupt"))
	put(t, tb, "a", "old")
	tb.rows["a"].recs = recs("bad") // the checksum still covers "old"
	put(t, tb, "a", "new")
	if v := get(tb, "a"); len(v) != 1 || !bytes.Equal(v[0], []byte("new")) {
		t.Errorf("refresh lost: %q", v)
	}
	if tb.lru.Len() != 1 || len(tb.rows) != 1 {
		t.Errorf("%d settled rows, %d keys after a refresh, want 1 and 1", tb.lru.Len(), len(tb.rows))
	}
	if n := reg.Counter("corrupt").Value(); n != 1 {
		t.Errorf("corruptions counted = %d, want 1", n)
	}
}
