// Package dense provides the chunked two-level tables that back the
// simulator's hot-path state (NVM pages, counter blocks, integrity-tree
// nodes, the Anubis shadow region). They replace the `map[uint64]`
// lookups that dominated the seed profile: an index lookup is two array
// dereferences and a mask — no hashing, no bucket chains, no write
// barriers on read — and iteration is in ascending index order, which
// makes every "walk the dirty/volatile set" loop deterministic by
// construction instead of by the repo's map-order-independence argument
// (DESIGN.md §12).
//
// A Table is sized at construction from the layout (layout.Map gives
// every region a fixed span) but allocates lazily: each chunk
// materializes on its first write, and the chunk directory of a large
// table grows with the highest chunk written so far. A 16 GB data space
// whose cell touches a few MB costs a directory of 256 slots, not one
// of 65536.
// The zero value of V means "absent" for tables that need presence
// (callers use pointer-typed V or an explicit live flag + counter when
// the zero value is a legal stored value).
package dense

import "fmt"

const (
	// chunkShift sets the chunk granularity: 2^chunkShift entries per
	// chunk. 4096 entries keeps directories small (a 268M-entry table —
	// 16 GB of data at line granularity — spans 65536 chunks) while a
	// chunk of bools is exactly one OS page.
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1

	// minDir is the most chunks whose directory NewTable allocates up
	// front, and a larger table's first directory size. From there the
	// directory grows by append, whose capacity grows geometrically, so
	// a table written up to chunk c takes O(log c) grows.
	minDir = 256
)

// Table is a fixed-capacity two-level array indexed by a dense uint64
// key in [0, Len). Chunks materialize on first write; reads of an
// untouched chunk, or of one past the directory's end, return the zero
// value without allocating.
type Table[V any] struct {
	chunks [][]V // the directory; slots past its end are unmaterialized
	n      uint64
}

// NewTable returns a table holding indices [0, n). A table of at most
// minDir chunks gets its whole directory now; a larger one allocates
// only the Table header, and its directory grows on writes.
func NewTable[V any](n uint64) *Table[V] {
	t := &Table[V]{n: n}
	if chunks := (n + chunkLen - 1) >> chunkShift; chunks <= minDir {
		t.chunks = make([][]V, chunks)
	}
	return t
}

// Len returns the table capacity (the exclusive index bound).
func (t *Table[V]) Len() uint64 { return t.n }

// rangeError is the panic value of Get, Ptr and Set given an index
// past the table's end. Panicking with a plain value keeps Get within
// the inliner's budget; Go 1.24.0 fails to compile a slice of the array
// that a non-inlined Get of a pointer-to-array table returns.
type rangeError struct{ Index, Len uint64 }

func (e rangeError) Error() string {
	return fmt.Sprintf("dense: index %d out of range [0, %d)", e.Index, e.Len)
}

// Get returns the value at index i, or the zero value if the chunk
// holding i was never written. It never allocates, and panics if
// i >= Len.
func (t *Table[V]) Get(i uint64) (v V) {
	if i >= t.n {
		panic(rangeError{i, t.n})
	}
	if ci := i >> chunkShift; ci < uint64(len(t.chunks)) {
		if c := t.chunks[ci]; c != nil {
			v = c[i&chunkMask]
		}
	}
	return v
}

// Ptr returns a pointer to the slot for index i, materializing its
// chunk, and growing the directory to reach it, if needed. It panics if
// i >= Len. The pointer stays valid for the table's lifetime (chunks
// are never moved or freed except by Reset; growing the directory
// copies chunk pointers, not chunks).
func (t *Table[V]) Ptr(i uint64) *V {
	if i >= t.n {
		panic(rangeError{i, t.n})
	}
	ci := i >> chunkShift
	if ci >= uint64(len(t.chunks)) {
		t.chunks = append(t.chunks, make([][]V, max(ci+1, minDir)-uint64(len(t.chunks)))...)
	}
	c := t.chunks[ci]
	if c == nil {
		c = make([]V, chunkLen)
		t.chunks[ci] = c
	}
	return &c[i&chunkMask]
}

// Set stores v at index i.
func (t *Table[V]) Set(i uint64, v V) { *t.Ptr(i) = v }

// Reset drops every chunk, so every index reads as zero again. The
// directory keeps its size.
func (t *Table[V]) Reset() { clear(t.chunks) }

// Range calls f for every slot in every materialized chunk, in
// ascending index order, until f returns false. Slots that were never
// written hold the zero value, so callers filter (nil pointer, false
// flag, zero count) exactly as they would check map membership.
// Mutating the visited slot through Ptr/Set during iteration is safe;
// materializing a *new* chunk during iteration is also safe (chunks
// never move, and the directory is re-read at every chunk) and the new
// chunk is visited if its index is still ahead of the cursor.
func (t *Table[V]) Range(f func(i uint64, v *V) bool) { t.RangeIn(0, t.n, f) }

// RangeIn is Range over the indices [lo, hi) only: it skips the chunks
// that were never written without visiting their slots.
func (t *Table[V]) RangeIn(lo, hi uint64, f func(i uint64, v *V) bool) {
	hi = min(hi, t.n)
	for i := lo; i < hi; {
		ci := i >> chunkShift
		if ci >= uint64(len(t.chunks)) {
			// Only f can grow the directory, and f runs no more.
			return
		}
		end := min((ci+1)<<chunkShift, hi)
		if c := t.chunks[ci]; c != nil {
			for ; i < end; i++ {
				if !f(i, &c[i&chunkMask]) {
					return
				}
			}
		}
		i = end
	}
}
