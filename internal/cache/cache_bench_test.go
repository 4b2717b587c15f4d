package cache

import "testing"

func BenchmarkAccessHit(b *testing.B) {
	c := New("b", L1Size, L1Ways, DataLineSize)
	c.Access(0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0, false)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	c := New("b", LLCSize, LLCWays, DataLineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*64, i%2 == 0)
	}
}

// sparseLLCLines is a hashmap-eager cell's LLC occupancy: about 14,400
// of the LLC's 131,072 lines, 11%.
const sparseLLCLines = 14_400

// BenchmarkAccessSparseLLC holds an LLC-geometry cache at
// sparseLLCLines resident lines, scattered over the sets as a cell's
// are: each op is an Access that misses on a fresh line and the
// Invalidate of the line brought in sparseLLCLines ops before.
func BenchmarkAccessSparseLLC(b *testing.B) {
	c := New("b", LLCSize, LLCWays, DataLineSize)
	// addr scatters line i over a 1 GB span: the odd multiplier
	// permutes the span's lines.
	addr := func(i int) uint64 { return uint64(i) * 0x9E3779B1 % (1 << 24) * DataLineSize }
	for i := 0; i < sparseLLCLines; i++ {
		c.Access(addr(i), i%2 == 0)
	}
	b.ResetTimer()
	for i := sparseLLCLines; i < sparseLLCLines+b.N; i++ {
		c.Access(addr(i), i%2 == 0)
		c.Invalidate(addr(i - sparseLLCLines))
	}
}

func BenchmarkHierarchyReadHit(b *testing.B) {
	eng, _, h := newTestHier()
	h.Read(0, func() {})
	eng.Run(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(0, func() {})
		eng.Run(0)
	}
}

func BenchmarkHierarchyWrite(b *testing.B) {
	_, _, h := newTestHier()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Write(uint64(i%100000) * 64)
	}
}
