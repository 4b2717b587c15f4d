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
// every region a fixed span) but allocates lazily in chunks, so a
// 16 GB data space costs one small directory until pages are touched.
// The zero value of V means "absent" for tables that need presence
// (callers use pointer-typed V or an explicit live flag + counter when
// the zero value is a legal stored value).
package dense

const (
	// chunkShift sets the chunk granularity: 2^chunkShift entries per
	// chunk. 4096 entries keeps directories tiny (a 268M-entry table —
	// 16 GB of data at line granularity — has a 65536-entry directory)
	// while a chunk of bools is exactly one OS page.
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// Table is a fixed-capacity two-level array indexed by a dense uint64
// key in [0, Len). Chunks materialize on first write; reads of an
// untouched chunk return the zero value without allocating.
type Table[V any] struct {
	chunks [][]V
	n      uint64
}

// NewTable returns a table holding indices [0, n).
func NewTable[V any](n uint64) *Table[V] {
	return &Table[V]{
		chunks: make([][]V, (n+chunkLen-1)>>chunkShift),
		n:      n,
	}
}

// Len returns the table capacity (the exclusive index bound).
func (t *Table[V]) Len() uint64 { return t.n }

// Get returns the value at index i, or the zero value if the chunk
// holding i was never written. It never allocates.
func (t *Table[V]) Get(i uint64) V {
	if c := t.chunks[i>>chunkShift]; c != nil {
		return c[i&chunkMask]
	}
	var zero V
	return zero
}

// Ptr returns a pointer to the slot for index i, materializing its
// chunk if needed. The pointer stays valid for the table's lifetime
// (chunks are never moved or freed except by Reset).
func (t *Table[V]) Ptr(i uint64) *V {
	ci := i >> chunkShift
	c := t.chunks[ci]
	if c == nil {
		c = make([]V, chunkLen)
		t.chunks[ci] = c
	}
	return &c[i&chunkMask]
}

// Set stores v at index i.
func (t *Table[V]) Set(i uint64, v V) { *t.Ptr(i) = v }

// Reset drops every chunk, returning the table to its freshly
// constructed state (all indices read as zero).
func (t *Table[V]) Reset() {
	for i := range t.chunks {
		t.chunks[i] = nil
	}
}

// Range calls f for every slot in every materialized chunk, in
// ascending index order, until f returns false. Slots that were never
// written hold the zero value, so callers filter (nil pointer, false
// flag, zero count) exactly as they would check map membership.
// Mutating the visited slot through Ptr/Set during iteration is safe;
// materializing a *new* chunk during iteration is also safe (the
// directory is fixed-size) and the new chunk is visited if its index
// is still ahead of the cursor.
func (t *Table[V]) Range(f func(i uint64, v *V) bool) { t.RangeIn(0, t.n, f) }

// RangeIn is Range over the indices [lo, hi) only: it skips the chunks
// that were never written without visiting their slots.
func (t *Table[V]) RangeIn(lo, hi uint64, f func(i uint64, v *V) bool) {
	hi = min(hi, t.n)
	for i := lo; i < hi; {
		ci := i >> chunkShift
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
