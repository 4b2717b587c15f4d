package whisper

import (
	"fmt"

	"dolos/internal/pmem"
)

// heapNeed returns an upper bound on the persistent-heap bytes a run of
// w with p allocates: the undo log, the workload's fixed structures, and
// for every write the run can make (each warm-up and each measured
// iteration makes at most one) a payload plus the structure around it.
// Heap allocations are never freed, so the bound holds for any seed.
// It returns 0 for a workload it does not know.
func heapNeed(w Workload, p Params) uint64 {
	p = p.withDefaults()
	payload := lineAlign(uint64(p.TxSize))
	writes := uint64(p.Warmup + p.Transactions)
	var structures uint64
	switch w.(type) {
	case Hashmap:
		// Buckets; per insert a payload and a 32-byte node.
		structures = lineAlign(hashmapBuckets*8) + writes*(payload+pmem.LineSize)
	case Redis:
		// Buckets; per set a payload and a one-line entry.
		structures = lineAlign(redisBuckets*8) + writes*(payload+pmem.LineSize)
	case Ctree:
		// Root slot; per insert a payload, a leaf and an inner node.
		structures = pmem.LineSize + writes*(payload+2*pmem.LineSize)
	case RBtree:
		// Root slot; per insert a payload and a one-line node.
		structures = pmem.LineSize + writes*(payload+pmem.LineSize)
	case Btree:
		// Every insert (updates too) allocates its payload. A split
		// leaves both halves at least three keys full and keys are
		// never removed, so the tree has at most one node per two
		// inserts plus the first root and one more: one node per
		// insert plus two bounds it.
		structures = 2*btreeNodeSize + writes*(payload+btreeNodeSize)
	case YCSB:
		// The record table, and a payload and record line per record;
		// measured updates rewrite records in place.
		records := uint64(max(p.Warmup, 64))
		structures = lineAlign(records*8) + records*(payload+pmem.LineSize)
	case TxStream:
		structures = 64 * payload
	case PQueue:
		// Head and tail slots; per enqueue a payload and a node.
		structures = 2*pmem.LineSize + writes*(payload+pmem.LineSize)
	default:
		return 0
	}
	return pmem.LogLines(LogCapacity(p))*pmem.LineSize + structures
}

// CheckHeap reports a run of w with p that could exhaust its persistent
// heap (p.HeapSize, 48 MB by default) as an error naming its transaction
// count and size: generating it could stop part way with a heap-exhausted
// panic. The bound is heapNeed's, so a run it accepts always fits.
func CheckHeap(w Workload, p Params) error {
	p = p.withDefaults()
	if need := heapNeed(w, p); need > p.HeapSize {
		return fmt.Errorf("txns %d with txsize %d: %s may need %d bytes of persistent heap, over its %d",
			p.Transactions, p.TxSize, w.Name(), need, p.HeapSize)
	}
	return nil
}

func lineAlign(n uint64) uint64 { return (n + pmem.LineSize - 1) &^ (pmem.LineSize - 1) }
