package pmem

import (
	"encoding/binary"
	"fmt"
	"slices"

	"dolos/internal/sim"
)

// Undo-log record layout: each logged line takes two 64-byte log lines —
// a header line (target address, sequence) and the old data line. The log
// region starts with a one-line status header.
const (
	logStatusIdle      = 0
	logStatusActive    = 1
	logStatusCommitted = 2

	logHeaderLines = 1
	linesPerEntry  = 2
)

// Transaction compute costs: the application work around the persistence
// primitives (allocation bookkeeping, range tracking, copying). Together
// with the pmem per-access overheads these calibrate the workloads into
// the paper's regime (DESIGN.md §7).
const (
	// BeginCompute is charged at transaction start.
	BeginCompute sim.Cycle = 350
	// LogAppendCompute is charged per undo-log entry (range registration
	// plus the old-value copy).
	LogAppendCompute sim.Cycle = 220
	// StoreCompute is charged per line stored inside a transaction.
	StoreCompute sim.Cycle = 180
	// CommitCompute is charged at commit.
	CommitCompute sim.Cycle = 500
)

// TxHeap layers PMDK-style undo-log durable transactions over a Heap.
// The protocol per transaction (the WHISPER/libpmemobj pattern — note the
// per-entry ordering fence, the frequent-flush-and-fence behaviour the
// paper's introduction calls out):
//
//  1. mark the log active (flush + fence),
//  2. for every line to be modified: append (address, old value) to the
//     log, flush the entry, fence — each entry is durable before its
//     data line may be overwritten,
//  3. apply the stores, flush every modified data line, fence,
//  4. write the commit record, flush, fence.
type TxHeap struct {
	*Heap
	logBase  uint64
	logLines uint64

	// logged and dataLines hold the transaction's undo-logged and
	// modified lines, dataLines in first-touch order (the deterministic
	// flush order). A transaction touches at most the log's capacity in
	// lines, a few dozen, so a linear scan finds a line.
	active    bool
	logged    []uint64
	dataLines []uint64
	entries   uint64

	committed uint64
}

// LogLines returns how many 64-byte lines an undo log with the given
// entry capacity occupies (for locating structures allocated after it).
func LogLines(capacity int) uint64 {
	return uint64(logHeaderLines + capacity*linesPerEntry)
}

// NewTx wraps a Heap with an undo log able to record `capacity` modified
// lines per transaction. The log is allocated from the heap itself.
func NewTx(h *Heap, capacity int) *TxHeap {
	lines := LogLines(capacity)
	return &TxHeap{
		Heap:     h,
		logBase:  h.Alloc(lines * LineSize),
		logLines: lines,
	}
}

// LogBase returns the NVM address of the undo log.
func (t *TxHeap) LogBase() uint64 { return t.logBase }

// Committed returns the number of committed transactions.
func (t *TxHeap) Committed() uint64 { return t.committed }

// Begin opens a durable transaction.
func (t *TxHeap) Begin() {
	if t.active {
		panic("pmem: nested transaction")
	}
	t.active = true
	t.entries = 0
	t.logged = t.logged[:0]
	t.dataLines = t.dataLines[:0]
	if t.rec != nil {
		t.rec.TxBegin()
	}
	t.Compute(BeginCompute)
	// Status line carries the transaction id so stale entries from
	// earlier transactions are distinguishable during recovery.
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:8], logStatusActive)
	binary.LittleEndian.PutUint64(hdr[8:], t.committed+1)
	t.Write(t.logBase, hdr[:])
	t.Flush(t.logBase)
	t.Fence()
}

// logLine appends an undo entry for the line containing addr (first
// modification only).
func (t *TxHeap) logLine(addr uint64) {
	line := addr &^ 63
	if slices.Contains(t.logged, line) {
		return
	}
	if t.entries >= (t.logLines-logHeaderLines)/linesPerEntry {
		panic(fmt.Sprintf("pmem: undo log full (%d entries)", t.entries))
	}
	t.logged = append(t.logged, line)
	entryBase := t.logBase + (logHeaderLines+t.entries*linesPerEntry)*LineSize
	t.entries++

	// Header line: target address, entry sequence, transaction id.
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[:8], line)
	binary.LittleEndian.PutUint64(hdr[8:16], t.entries)
	binary.LittleEndian.PutUint64(hdr[16:], t.committed+1)
	old := t.Line(line)
	t.Compute(LogAppendCompute)
	t.Write(entryBase, hdr[:])
	t.Write(entryBase+LineSize, old[:])
	t.Flush(entryBase)
	t.Flush(entryBase + LineSize)
	// PMDK ordering: the undo entry must be durable before the data
	// line is modified.
	t.Fence()
}

// Store performs a transactional write: the old value is undo-logged
// before the new data lands.
func (t *TxHeap) Store(addr uint64, data []byte) {
	if !t.active {
		panic("pmem: Store outside transaction")
	}
	for line := addr &^ 63; line < addr+uint64(len(data)); line += LineSize {
		t.logLine(line)
		t.markData(line)
		t.Compute(StoreCompute)
	}
	t.Write(addr, data)
}

// markData adds a line to the commit-time flush set once.
func (t *TxHeap) markData(line uint64) {
	if !slices.Contains(t.dataLines, line) {
		t.dataLines = append(t.dataLines, line)
	}
}

// StoreFresh performs a transactional write to freshly allocated space:
// the lines are flushed at commit but not undo-logged (PMDK's
// add-range-new optimization — rolling back an allocation needs no old
// image).
func (t *TxHeap) StoreFresh(addr uint64, data []byte) {
	if !t.active {
		panic("pmem: StoreFresh outside transaction")
	}
	for line := addr &^ 63; line < addr+uint64(len(data)); line += LineSize {
		t.markData(line)
		t.Compute(StoreCompute)
	}
	t.Write(addr, data)
}

// StoreFreshU64 is a 64-bit StoreFresh.
func (t *TxHeap) StoreFreshU64(addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	t.StoreFresh(addr, b[:])
}

// StoreU64 is a transactional 64-bit store.
func (t *TxHeap) StoreU64(addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	t.Store(addr, b[:])
}

// Commit makes the transaction durable: log fence, data flushes, commit
// record.
func (t *TxHeap) Commit() {
	if !t.active {
		panic("pmem: Commit outside transaction")
	}
	t.Compute(CommitCompute)
	for _, line := range t.dataLines {
		t.Flush(line)
	}
	t.Fence()
	t.WriteU64(t.logBase, logStatusCommitted)
	t.Flush(t.logBase)
	t.Fence()
	t.active = false
	t.committed++
	if t.rec != nil {
		t.rec.TxEnd()
	}
}

// UndoEntry is one recovered undo-log record.
type UndoEntry struct {
	Addr uint64
	Old  [64]byte
}

// ParseLog reads an undo log image via readLine (typically backed by the
// recovered NVM) and reports the log status plus its entries in append
// order.
func ParseLog(logBase uint64, maxEntries int, readLine func(addr uint64) [64]byte) (status uint64, entries []UndoEntry) {
	hdr := readLine(logBase)
	status = binary.LittleEndian.Uint64(hdr[:8])
	txid := binary.LittleEndian.Uint64(hdr[8:16])
	for i := 0; i < maxEntries; i++ {
		entryBase := logBase + uint64(logHeaderLines+i*linesPerEntry)*LineSize
		h := readLine(entryBase)
		addr := binary.LittleEndian.Uint64(h[:8])
		seq := binary.LittleEndian.Uint64(h[8:16])
		entryTx := binary.LittleEndian.Uint64(h[16:24])
		if seq != uint64(i+1) || entryTx != txid || addr == 0 {
			break
		}
		entries = append(entries, UndoEntry{Addr: addr, Old: readLine(entryBase + LineSize)})
	}
	return status, entries
}

// Rollback computes the restore set for an interrupted transaction: if
// the log is active (crash mid-transaction), the old images must be
// written back in reverse order. It returns the lines to restore, or nil
// when the log is idle/committed.
func Rollback(status uint64, entries []UndoEntry) []UndoEntry {
	if status != logStatusActive {
		return nil
	}
	out := make([]UndoEntry, 0, len(entries))
	for i := len(entries) - 1; i >= 0; i-- {
		out = append(out, entries[i])
	}
	return out
}
