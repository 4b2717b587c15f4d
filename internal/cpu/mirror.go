package cpu

import "dolos/internal/trace"

// mirrorTabLimit caps the dense mirror at 1<<24 lines (a 128 MB pointer
// table covering 1 GB of touched span); traces with a sparser footprint
// fall back to the map.
const mirrorTabLimit = 1 << 24

// TraceMirror tracks, per line address, the plaintext the application
// last wrote; the single-core System and each core of a multi-core
// machine keep one. Values are pointers into the immutable trace (ops
// and init image are never mutated after generation), so tracking a
// write stores one word instead of copying 64 bytes. The store is a
// dense base-offset table sized to one trace's touched line range — the
// hottest map operations left after the metadata tables went dense —
// with a map fallback for addresses outside that range (none in
// practice) and for use before SizeFor runs.
type TraceMirror struct {
	base uint64
	tab  []*[64]byte
	m    map[uint64]*[64]byte
}

// NewTraceMirror returns an empty mirror (map-only until SizeFor).
func NewTraceMirror() *TraceMirror {
	return &TraceMirror{m: make(map[uint64]*[64]byte)}
}

// SizeFor sizes the dense table to the trace's touched line range,
// which the trace carries (trace.Trace.LineSpan).
func (m *TraceMirror) SizeFor(tr *trace.Trace) {
	lo, end := tr.LineSpan()
	if end == 0 {
		return // no memory operations
	}
	if n := (end - lo) >> 6; n <= mirrorTabLimit {
		m.base = lo
		m.tab = make([]*[64]byte, n)
	}
}

// At returns the mirror entry for addr's line (nil if untracked).
func (m *TraceMirror) At(addr uint64) *[64]byte {
	addr &^= 63
	if i := (addr - m.base) >> 6; i < uint64(len(m.tab)) {
		return m.tab[i]
	}
	return m.m[addr]
}

// Set records p as addr's line contents.
func (m *TraceMirror) Set(addr uint64, p *[64]byte) {
	addr &^= 63
	if i := (addr - m.base) >> 6; i < uint64(len(m.tab)) {
		m.tab[i] = p
		return
	}
	m.m[addr] = p
}
