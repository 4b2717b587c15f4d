package bmt

import "testing"

// Benchmark trees use the full 16 GB geometry (4M leaves, 8 interior
// levels) so per-update costs match the evaluation configuration.
func benchTree(b *testing.B) *testTree {
	b.Helper()
	tree, _ := newTestTree(4 << 20)
	return tree
}

func BenchmarkUpdateLeaf(b *testing.B) {
	tree := benchTree(b)
	img := leafImg(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.write(uint64(i)%1024, &img)
	}
}

// BenchmarkVerifyLeaf verifies leaves whose paths live only in NVM, as
// after a crash: each call hashes the leaf and every level to the root.
// (A live leaf written since passes without a hash.)
func BenchmarkVerifyLeaf(b *testing.B) {
	tree := benchTree(b)
	img := leafImg(1)
	for i := uint64(0); i < 1024; i++ {
		tree.write(i, &img)
	}
	tree.PersistAll()
	tree.DropVolatile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.VerifyLeaf(uint64(i) % 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteThenObserve is the cost a burst of writes pays before
// anyone reads the tree: 64 leaf updates with shared ancestors, then
// one persist of the top node, which observes every path written.
func BenchmarkWriteThenObserve(b *testing.B) {
	tree := benchTree(b)
	img := leafImg(1)
	top := tree.Levels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			tree.write(uint64(i*64+j)%(1<<16), &img)
		}
		tree.PersistNode(top, 0)
	}
}
