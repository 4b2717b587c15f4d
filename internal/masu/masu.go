// Package masu implements the Major Security Unit: the conventional
// secure-memory pipeline that protects the whole NVM with counter-mode
// encryption, per-line MACs and an integrity tree, and that in Dolos runs
// after eviction from the WPQ, off the critical path of persistence
// (Section 4.4, Figure 11).
//
// The unit follows the Anubis recipe for crash consistency: results of
// step 2 (encrypt, MAC, counter block, tree versions) are staged in
// persistent redo-log registers before step 3 applies them to the
// metadata caches and NVM; a shadow-tracker region mirrors every dirty
// metadata block so recovery can restore the caches to a state
// consistent with the eagerly updated root. Counters are additionally
// recoverable via Osiris ECC probing (the slow path). Tree MACs, leaf
// MACs included, BMT and ToC alike, and each data line's ciphertext, MAC
// and ECC word are computed where they are observed (DESIGN.md §18), so
// a write computes no hash and no AES pad; CrashVolatile is one such
// point, filling the data lines, the shadow images (and the BMT redo
// record's temp root) from the live counter blocks and the refreshed
// tree.
package masu

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dolos/internal/bmt"
	"dolos/internal/cache"
	"dolos/internal/crypt"
	"dolos/internal/ctr"
	"dolos/internal/dense"
	"dolos/internal/layout"
	"dolos/internal/nvm"
	"dolos/internal/toc"
)

// TreeKind selects the integrity-protection backend (Section 5.1).
type TreeKind int

const (
	// BMTEager is an 8-ary Bonsai Merkle Tree with eager (AGIT) updates.
	BMTEager TreeKind = iota
	// ToCLazy is an 8-ary Tree of Counters with lazy, parallel updates
	// protected by Phoenix-style shadow tracking.
	ToCLazy
)

// String returns the configuration name used in the paper's figures.
func (k TreeKind) String() string {
	if k == BMTEager {
		return "eager-BMT"
	}
	return "lazy-ToC"
}

// SerialMACs returns the critical-path MAC count the paper charges the
// Ma-SU per write: 10 for eager BMT (data MAC + 9 tree levels, Table 1:
// 160x10) and 4 for lazy ToC (Table 1: 160x4).
func (k TreeKind) SerialMACs() int {
	if k == BMTEager {
		return 10
	}
	return 4
}

// Metadata cache geometry (Table 1).
const (
	CounterCacheSize = 128 << 10
	CounterCacheWays = 4
	MTCacheSize      = 256 << 10
	MTCacheWays      = 8
	MetaLineSize     = 64
)

// Cost aggregates the work of one Ma-SU operation for the timing model.
type Cost struct {
	// CounterMisses and TreeMisses are metadata-cache misses, each
	// costing an NVM read.
	CounterMisses int
	TreeMisses    int
	// SerialMACs is the critical-path MAC count.
	SerialMACs int
	// TotalMACs is the modeled count of every MAC the hardware computes
	// (parallel ones included). It is not the host's count: both trees
	// hash interior nodes only where observed (bmt.Tree.MACOps,
	// toc.Tree.MACOps).
	TotalMACs int
	// AESOps counts encryption-pad generations.
	AESOps int
	// NVMWrites counts 64-byte lines written to the device.
	NVMWrites int
	// ShadowWrites counts Anubis shadow-region writes.
	ShadowWrites int
	// ReencryptedLines counts page re-encryption work after a minor-
	// counter overflow.
	ReencryptedLines int
}

// Add accumulates another cost.
func (c *Cost) Add(o Cost) {
	c.CounterMisses += o.CounterMisses
	c.TreeMisses += o.TreeMisses
	c.SerialMACs += o.SerialMACs
	c.TotalMACs += o.TotalMACs
	c.AESOps += o.AESOps
	c.NVMWrites += o.NVMWrites
	c.ShadowWrites += o.ShadowWrites
	c.ReencryptedLines += o.ReencryptedLines
}

// Op is a prepared write held in the redo-log registers (Figure 11
// step 2 output). Ready becomes true once fully staged. The line's
// ciphertext, MAC and ECC word are not staged: ApplyWrite writes the
// plaintext to the line's slot and leaves all three pending, and they
// are computed from it, under Counter, where observed.
type Op struct {
	Addr     uint64
	Plain    [64]byte
	Counter  uint64
	Overflow bool

	// LeafIndex and LeafBlock are the counter block this write updates
	// and its staged content. ApplyWrite installs the block in the
	// counter store, which is the integrity tree's leaf source: the
	// block's image and leaf MAC are computed only where observed (the
	// shadow entry, the tree), never on the write path. A crash that
	// catches the op staged hashes the block for the BMT temp root.
	LeafIndex uint64
	LeafBlock ctr.Block

	// ToC is the staged ToC update: the absolute version arrays the path
	// nodes and the root take, so a replay is idempotent and overwrites
	// a tampered restored path node. (A BMT write stages nothing beyond
	// the block: applying it marks the leaf's path stale.)
	ToC toc.Update

	WPQSlot int
}

// redoLog models the persistent redo registers. The op is stored by
// value and reused across writes (PrepareWrite stages into it in
// place), so the steady-state write path allocates nothing: only the
// ready bit distinguishes "staged" from "stale contents of the last
// applied op". ApplyWrite clears ready but leaves the op bytes intact.
//
// tempRoot is the BMT root the staged op produces. Only a crash
// observes it: CrashVolatile computes it (haveTempRoot) and the replay
// installs it in the root register.
type redoLog struct {
	ready        bool
	op           Op
	tempRoot     crypt.MAC
	haveTempRoot bool
}

// shadowEntry is one slot of the Anubis shadow-tracker table. live
// distinguishes a present entry from the zero value of an untouched
// slot (a zero image is a legal shadow payload). pending marks an entry
// whose image is the live image of its block — the counter block or
// the tree node (BMT or ToC) — copied into the image table at
// CrashVolatile (or before any other read) rather than on every write.
type shadowEntry struct {
	live    bool
	pending bool
}

// Unit is the Major Security Unit.
type Unit struct {
	kind TreeKind
	eng  crypt.Dispatch
	dev  *nvm.Device
	lay  layout.Map

	counters *ctr.Store
	bmtTree  *bmt.Tree
	tocTree  *toc.Tree

	counterCache *cache.Cache
	mtCache      *cache.Cache

	// shadow is the Anubis shadow-tracker region: NVM-resident by
	// construction (it survives CrashVolatile), mirroring every metadata
	// block that is dirty in the caches. Indexed by 64 B granule over
	// [CounterBase, MACBase); shadowCount counts live entries. shadowImg
	// holds the entries' images, same index; only fillShadow writes one
	// (and TamperShadow corrupts one), so a run that never crashes
	// allocates none.
	shadow      *dense.Table[shadowEntry]
	shadowImg   *dense.Table[[64]byte]
	shadowCount int

	// written holds each line's state bits, indexed by line within the
	// data region: lineWritten for lines that have ever been written
	// (the recovery scan set; in hardware this is a memory scan), and
	// the pending bits of a ciphertext with its MAC, or of an ECC word,
	// owed to NVM (fillLine). writtenCount counts written lines.
	written      *dense.Table[uint8]
	writtenCount int
	// lineCounter records the counter each line's current ciphertext,
	// in NVM or owed to it, was produced with. Normally equal to the
	// counter store's value; it diverges only transiently during
	// post-overflow page re-encryption, where hardware reads the
	// pre-reset counters from the old block.
	lineCounter *dense.Table[uint64]
	// dataWB, macWB and eccWB are the data, data-MAC and ECC regions,
	// written back when observed: a data-pending line's slot holds its
	// plaintext, which only the Ma-SU reads (dataWB.ReadLine).
	dataWB, macWB, eccWB *nvm.WriteBack

	redo redoLog

	// policy is the metadata-persistence policy (zero = original
	// behavior; see policy.go).
	policy Policy
	// prevLeaf/havePrev track the previous write's counter-block leaf
	// for STUM's streamlined update coalescing.
	prevLeaf uint64
	havePrev bool
	// lastWTLeaf/haveWTLeaf track the last write-through counter persist
	// for SuperMem's cross-bank coalescing; coalescedCtr counts merges.
	lastWTLeaf   uint64
	haveWTLeaf   bool
	coalescedCtr uint64

	writes, reads uint64

	// onWrite, when non-nil, observes each completed write with its cost
	// composition (telemetry). Purely observational.
	onWrite func(addr uint64, cost Cost)
}

// Params tunes a Ma-SU beyond Table 1's defaults (cache-size ablations).
type Params struct {
	// OsirisPeriod is the counter persist period (0 = default).
	OsirisPeriod uint64
	// CounterCacheBytes overrides the counter-cache capacity (0 = Table
	// 1's 128 KB). Must keep a power-of-two set count.
	CounterCacheBytes uint64
	// MTCacheBytes overrides the MT-cache capacity (0 = 256 KB).
	MTCacheBytes uint64
	// Policy selects the metadata-persistence policy (zero value = the
	// original write-back + full-shadow behavior; see policy.go).
	Policy Policy
}

// New builds a Ma-SU over the device using the given address map.
// osirisPeriod 0 selects the default.
func New(kind TreeKind, eng crypt.Provider, dev *nvm.Device, lay layout.Map, osirisPeriod uint64) *Unit {
	return NewWithParams(kind, eng, dev, lay, Params{OsirisPeriod: osirisPeriod})
}

// NewWithParams builds a Ma-SU with explicit tuning parameters.
func NewWithParams(kind TreeKind, eng crypt.Provider, dev *nvm.Device, lay layout.Map, p Params) *Unit {
	ccBytes := p.CounterCacheBytes
	if ccBytes == 0 {
		ccBytes = CounterCacheSize
	}
	mtBytes := p.MTCacheBytes
	if mtBytes == 0 {
		mtBytes = MTCacheSize
	}
	u := &Unit{
		kind:         kind,
		policy:       p.Policy,
		eng:          crypt.AsDispatch(eng),
		dev:          dev,
		lay:          lay,
		counters:     ctr.NewStore(dev, lay.CounterBase, lay.DataBase, lay.DataSpan, p.OsirisPeriod),
		counterCache: cache.New("counter-cache", ccBytes, CounterCacheWays, MetaLineSize),
		mtCache:      cache.New("mt-cache", mtBytes, MTCacheWays, MetaLineSize),
		shadow:       dense.NewTable[shadowEntry]((lay.MACBase - lay.CounterBase) / 64),
		shadowImg:    dense.NewTable[[64]byte]((lay.MACBase - lay.CounterBase) / 64),
		written:      dense.NewTable[uint8](lay.DataSpan / 64),
		lineCounter:  dense.NewTable[uint64](lay.DataSpan / 64),
	}
	switch kind {
	case BMTEager:
		u.bmtTree = bmt.New(eng, dev, lay.TreeBase, lay.Leaves(), u.counters.ImageByIndex)
	case ToCLazy:
		u.tocTree = toc.New(eng, dev, lay.TreeBase, lay.Leaves(), u.counters.ImageByIndex)
	}
	end := lay.DataBase + lay.DataSpan
	u.dataWB = dev.SetWriteBack(lay.DataBase, end, func(lo, hi uint64) {
		u.fillLines(u.lineIdx(lo), u.lineIdx(hi+63))
	})
	u.macWB = dev.SetWriteBack(lay.MACBase, lay.LineMACAddr(end), func(lo, hi uint64) {
		u.fillLines((lo-lay.MACBase)/crypt.MACSize, (hi-lay.MACBase+crypt.MACSize-1)/crypt.MACSize)
	})
	u.eccWB = dev.SetWriteBack(lay.ECCBase, lay.ECCAddr(end), func(lo, hi uint64) {
		u.fillLines((lo-lay.ECCBase)/eccSize, (hi-lay.ECCBase+eccSize-1)/eccSize)
	})
	return u
}

// Kind returns the integrity backend in use.
func (u *Unit) Kind() TreeKind { return u.kind }

// ErrFastMode reports a security-sensitive operation attempted on a
// latency-only crypto provider: recovery and audit paths verify real
// MACs and ECC, which fast mode fakes, so running them would vacuously
// pass (or spuriously fail) instead of checking anything.
var ErrFastMode = errors.New("masu: requires the functional crypto provider (fast mode computes latency-only MACs/ECC)")

// ErrNeedsBMT reports a recovery path that rebuilds the integrity tree
// from counter blocks (Osiris probing, Triad-NVM/SuperMem
// reconstruction) attempted on the lazy ToC backend, which has no
// rebuild: its node versions cannot be derived from the counters.
var ErrNeedsBMT = errors.New("masu: recovery path requires the eager BMT backend")

// Functional reports whether the unit's crypto provider computes real
// cryptographic values — the precondition for RecoverAnubis,
// RecoverOsiris, Audit and CheckLine.
func (u *Unit) Functional() bool { return u.eng.Functional() }

// SetWriteHook installs (or with nil removes) the per-write cost
// observer, invoked at the end of every ProcessWrite.
func (u *Unit) SetWriteHook(fn func(addr uint64, cost Cost)) { u.onWrite = fn }

// Counters exposes the counter store (recovery drivers, tests).
func (u *Unit) Counters() *ctr.Store { return u.counters }

// BMT returns the Merkle tree (nil in ToC mode).
func (u *Unit) BMT() *bmt.Tree { return u.bmtTree }

// ToC returns the Tree of Counters (nil in BMT mode).
func (u *Unit) ToC() *toc.Tree { return u.tocTree }

// CounterCache returns the counter metadata cache.
func (u *Unit) CounterCache() *cache.Cache { return u.counterCache }

// MTCache returns the tree metadata cache.
func (u *Unit) MTCache() *cache.Cache { return u.mtCache }

// Writes returns the number of writes fully processed.
func (u *Unit) Writes() uint64 { return u.writes }

// Reads returns the number of reads served.
func (u *Unit) Reads() uint64 { return u.reads }

// RedoReady reports whether a staged op awaits application (used by the
// crash model).
func (u *Unit) RedoReady() bool { return u.redo.ready }

// WrittenLines returns the number of distinct lines ever written.
func (u *Unit) WrittenLines() int { return u.writtenCount }

// lineIdx maps a data address to its index in the written/lineCounter
// tables.
func (u *Unit) lineIdx(addr uint64) uint64 { return (addr - u.lay.DataBase) / 64 }

// metaIdx maps a metadata NVM address (counter block or tree node) to
// its shadow-table index; ok is false outside [CounterBase, MACBase).
func (u *Unit) metaIdx(nvmAddr uint64) (uint64, bool) {
	if nvmAddr < u.lay.CounterBase || nvmAddr >= u.lay.MACBase {
		return 0, false
	}
	return (nvmAddr - u.lay.CounterBase) / 64, true
}

// nodeRefAt returns the tree node whose NVM home is nvmAddr, for victim
// persistence and shadow replay; ok is false for any other address.
func (u *Unit) nodeRefAt(nvmAddr uint64) (level int, index uint64, ok bool) {
	if u.bmtTree != nil {
		return u.bmtTree.NodeAt(nvmAddr)
	}
	return u.tocTree.NodeAt(nvmAddr)
}

// touchCounter charges a counter-cache access for addr's counter block
// and handles dirty victim persistence.
func (u *Unit) touchCounter(addr uint64, write bool, cost *Cost) {
	blockAddr := u.counters.BlockNVMAddr(addr)
	if u.policy.CounterWriteThrough {
		// Write-through: the NVM copy is updated at apply time, so the
		// cached line is never dirty and eviction needs no writeback.
		write = false
	}
	hit, victim, evicted := u.counterCache.Access(blockAddr, write)
	if !hit {
		cost.CounterMisses++
	}
	if evicted && victim.Dirty {
		u.persistMetaVictim(victim.Addr, cost)
	}
}

// touchTreeNode charges an MT-cache access for a tree-node NVM address.
func (u *Unit) touchTreeNode(nodeAddr uint64, write bool, cost *Cost) {
	if u.policy.PartialTreePersistence {
		// Persisted levels are written through at apply time; volatile
		// levels are simply dropped on eviction. Either way the cached
		// line is never dirty.
		write = false
	}
	hit, victim, evicted := u.mtCache.Access(nodeAddr, write)
	if !hit {
		cost.TreeMisses++
	}
	if evicted && victim.Dirty {
		u.persistMetaVictim(victim.Addr, cost)
	}
}

// persistMetaVictim writes an evicted dirty metadata block to NVM and
// retires its shadow entry (the NVM copy is now current).
func (u *Unit) persistMetaVictim(nvmAddr uint64, cost *Cost) {
	if pi, ok := u.counters.PageIndexOfNVMAddr(nvmAddr); ok {
		u.counters.PersistByIndex(pi)
	} else if level, index, ok := u.nodeRefAt(nvmAddr); ok {
		if u.bmtTree != nil {
			u.bmtTree.PersistNode(level, index)
		} else {
			u.tocTree.PersistNode(level, index)
		}
	}
	if i, ok := u.metaIdx(nvmAddr); ok {
		e := u.shadow.Ptr(i)
		if e.live {
			e.live, e.pending = false, false
			u.shadowCount--
		}
	}
	cost.NVMWrites++
}

// shadowWrite records the current image of a dirty metadata block in the
// Anubis shadow region (one extra NVM write, off the critical path). The
// entry turns pending: its image is the block's live image, copied when
// the entry is read (fillShadow).
func (u *Unit) shadowWrite(nvmAddr uint64, cost *Cost) {
	if i, ok := u.metaIdx(nvmAddr); ok {
		e := u.shadow.Ptr(i)
		if !e.live {
			e.live = true
			u.shadowCount++
		}
		e.pending = true
	}
	cost.ShadowWrites++
	cost.NVMWrites++
}

// PrepareWrite performs Figure 11 step 2 for a write to addr: it computes
// the counter block and, for the ToC, the path versions, stages them
// with the plaintext in the redo-log registers and sets the ready bit.
// It computes no ciphertext, no MAC and no ECC: the line's are filled
// where observed, the tree's likewise (DESIGN.md §18), and the cost
// still charges the pad and the data MAC. No architectural state
// changes yet.
func (u *Unit) PrepareWrite(addr uint64, plain [64]byte, wpqSlot int) (*Op, Cost) {
	if !u.lay.ValidData(addr) {
		panic(fmt.Sprintf("masu: write outside data region: %#x", addr))
	}
	if u.redo.ready {
		panic("masu: PrepareWrite with a staged op pending")
	}
	var cost Cost
	addr &^= uint64(63)

	u.touchCounter(addr, true, &cost)
	prev := u.counters.Preview(addr)

	// Stage into the redo registers in place: the op is reused across
	// writes.
	op := &u.redo.op
	op.Addr = addr
	op.Plain = plain
	op.Counter = prev.Counter
	op.Overflow = prev.Overflow
	op.WPQSlot = wpqSlot
	cost.AESOps++    // the pad, filled when observed
	cost.TotalMACs++ // the data MAC, filled when observed

	// New leaf image: the counter block after this increment.
	leaf := u.lay.LeafIndex(addr)
	op.LeafIndex = leaf
	blk := u.counters.BlockByIndex(leaf)
	li := int(addr/64) % ctr.LinesPerBlock
	if prev.Overflow {
		blk.Major++
		for i := range blk.Minors {
			blk.Minors[i] = 0
		}
		blk.Minors[li] = 1
	} else {
		blk.Minors[li]++
	}
	op.LeafBlock = blk

	switch u.kind {
	case BMTEager:
		cost.TotalMACs += u.bmtTree.Levels()
	case ToCLazy:
		u.tocTree.Stage(&op.ToC, leaf)
		cost.TotalMACs += u.tocTree.Levels() + 1
	}
	cost.SerialMACs = u.serialMACsFor(leaf)
	u.prevLeaf, u.havePrev = leaf, true

	u.redo.ready = true
	return op, cost
}

// ApplyWrite performs Figure 11 step 3: metadata caches, NVM and shadow
// region are updated from the staged op; the redo ready bit clears after
// the caller also clears the WPQ entry (step 4 is the controller's).
func (u *Unit) ApplyWrite(op *Op) Cost {
	var cost Cost

	// Counter store: install the staged block (idempotent, so redo
	// replay after a crash is safe). It is the trees' leaf source, so it
	// takes the block before the tree marks the leaf. Overflow forces a
	// persist; a write-through policy forces one on every write and
	// skips the shadow entry (the NVM copy IS the recovery source).
	u.counters.ApplyBlock(op.LeafIndex, &op.LeafBlock, op.Overflow || u.policy.CounterWriteThrough)
	if u.policy.CounterWriteThrough {
		if u.policy.CoalesceCounterWrites && u.haveWTLeaf && u.lastWTLeaf == op.LeafIndex {
			u.coalescedCtr++ // merged with the in-flight write to the same block
		} else {
			cost.NVMWrites++
		}
		u.lastWTLeaf, u.haveWTLeaf = op.LeafIndex, true
	} else {
		u.shadowWrite(u.counters.BlockNVMAddr(op.Addr), &cost)
	}

	// Integrity tree.
	switch u.kind {
	case BMTEager:
		// Triad-NVM writes the first N levels through to NVM (the tree
		// writes them back when observed); higher levels stay volatile
		// (rebuilt at recovery).
		through := 0
		if u.policy.PartialTreePersistence {
			through = u.persistLevels()
		}
		u.bmtTree.UpdateLeaf(op.LeafIndex, through)
		idx := op.LeafIndex
		for level := 1; level <= u.bmtTree.Levels(); level++ {
			idx /= bmt.Arity
			nodeAddr := u.bmtTree.NodeNVMAddr(level, idx)
			u.touchTreeNode(nodeAddr, true, &cost)
			if u.policy.PartialTreePersistence {
				if level <= through {
					cost.NVMWrites++
				}
			} else {
				u.shadowWrite(nodeAddr, &cost)
			}
		}
	case ToCLazy:
		u.tocTree.Apply(&op.ToC)
		idx := op.LeafIndex
		for level := 1; level <= u.tocTree.Levels(); level++ {
			idx /= toc.Arity
			nodeAddr := u.tocTree.NodeNVMAddr(level, idx)
			u.touchTreeNode(nodeAddr, true, &cost)
			u.shadowWrite(nodeAddr, &cost)
		}
		cost.NVMWrites++ // the leaf MAC, written back when observed
	}

	// The plaintext to the line's slot; its ciphertext, MAC and ECC
	// turn pending, written back when observed.
	u.stageLine(op.Addr, &op.Plain, op.Counter, linePending)
	cost.NVMWrites += 2 // the line, then MAC+ECC sharing a metadata write slot
	u.writes++

	if op.Overflow {
		cost.Add(u.reencryptPage(op.Addr))
	}

	// Clear only the ready bit: the staged op bytes remain valid for a
	// caller still holding the *Op until the next PrepareWrite.
	u.redo.ready = false
	return cost
}

// ProcessWrite runs the full prepare+apply pipeline (the common case when
// no crash interrupts the Ma-SU).
func (u *Unit) ProcessWrite(addr uint64, plain [64]byte, wpqSlot int) Cost {
	op, cost := u.PrepareWrite(addr, plain, wpqSlot)
	cost2 := u.ApplyWrite(op)
	cost.Add(cost2)
	if u.onWrite != nil {
		u.onWrite(addr&^uint64(63), cost)
	}
	return cost
}

// reencryptPage re-encrypts every line of addr's page after a minor-
// counter overflow gave the whole page fresh counters; the modelled cost
// is a decrypt under the old counter for each written line and an
// encrypt under the reset one for every line. Never-written lines get
// their defined zero content too, because the reset leaves them with a
// nonzero counter and the invariant "counter != 0 implies valid
// ciphertext+MAC" must hold for the read path and for recovery audits.
// The host encrypts nothing: every line ends data-pending under its new
// counter. A data-pending line's slot already holds its plaintext, so
// only its counter moves. A filled line is decrypted under the counter
// its ciphertext was produced with, and its plaintext staged. A
// re-encrypted line keeps its ECC word (its plaintext is unchanged),
// pending or not; a never-written line owes the ECC of its zero content.
func (u *Unit) reencryptPage(addr uint64) Cost {
	var cost Cost
	page := addr / nvm.PageSize * nvm.PageSize
	for a := page; a < page+nvm.PageSize; a += 64 {
		if a == addr {
			continue
		}
		ai := u.lineIdx(a)
		newCtr := u.counters.Counter(a)
		s := u.written.Get(ai)
		switch {
		case s&dataPending != 0:
			u.lineCounter.Set(ai, newCtr)
		case s&lineWritten != 0:
			plain := u.dataWB.ReadLine(a)
			u.eng.DecryptLineTo(&plain, &plain, lineIV(a, u.lineCounter.Get(ai)))
			u.stageLine(a, &plain, newCtr, dataPending)
		default:
			var zero [64]byte
			u.stageLine(a, &zero, newCtr, linePending)
		}
		if s&lineWritten != 0 {
			cost.AESOps++ // the decrypt under the old counter
		}
		cost.ReencryptedLines++
		cost.AESOps++
		cost.TotalMACs++
		cost.NVMWrites += 2
	}
	return cost
}

// Line-state bits of the written table.
const (
	lineWritten uint8 = 1 << iota
	// dataPending: the line's slot holds the plaintext the Ma-SU staged,
	// and its eager ciphertext, EncryptLine(plaintext, lineIV(addr,
	// lineCounter)), is owed to NVM with the MAC of that ciphertext. A
	// line's MAC is owed exactly when its ciphertext is, so one bit
	// says both.
	dataPending
	// eccPending: the line's ECC word, LineECC of its plaintext, is owed
	// to NVM. Only a data-pending line owes one.
	eccPending
	linePending = dataPending | eccPending
)

// eccSize is the size of a line's ECC word in the ECC region.
const eccSize = 4

// lineIV is the encryption IV of the data line at addr under counter.
func lineIV(addr, counter uint64) crypt.IV {
	return crypt.MakeIV(addr/nvm.PageSize, uint16(addr%nvm.PageSize/64), counter)
}

// stageLine writes the plaintext data, staged under counter, to the
// line at addr — the slot its ciphertext will occupy — and leaves the
// owed bits pending, so the device regions that observe them are
// marked. It writes as the owner and fills nothing: what the line owed
// belongs to the content the write replaces, and the caller owes afresh
// whatever the new content changes.
func (u *Unit) stageLine(addr uint64, data *[64]byte, counter uint64, owed uint8) {
	i := u.lineIdx(addr)
	s := u.written.Ptr(i)
	if *s&lineWritten == 0 {
		u.writtenCount++
	}
	*s = lineWritten | owed
	u.dataWB.WriteLine(addr, data)
	u.lineCounter.Set(i, counter)
	u.dataWB.Mark()
	u.macWB.Mark()
	u.eccWB.Mark()
}

// fillLines fills the pending ciphertexts, MACs and ECC words of lines
// [lo, hi).
func (u *Unit) fillLines(lo, hi uint64) {
	u.written.RangeIn(lo, hi, func(i uint64, s *uint8) bool {
		if *s&linePending != 0 {
			u.fillLine(i, s)
		}
		return true
	})
}

// fillLine writes what data-pending line i owes NVM: exactly the bytes
// an eager write would have written. It encrypts the plaintext the
// line's slot holds under lineCounter and writes the ciphertext over
// it, then the MAC of that ciphertext and, if pending, the ECC of the
// plaintext; so a fill computes one pad and decrypts nothing. The bits
// clear first, so the MAC and ECC writes below, which the device
// observes, fill nothing of their own.
func (u *Unit) fillLine(i uint64, s *uint8) {
	owed := *s & linePending
	*s &^= linePending
	addr := u.lay.DataBase + i*64
	counter := u.lineCounter.Get(i)
	plain := u.dataWB.ReadLine(addr)
	var ct [64]byte
	u.eng.EncryptLineTo(&ct, &plain, lineIV(addr, counter))
	u.dataWB.WriteLine(addr, &ct)
	mac := u.eng.LineMAC(&ct, addr, counter)
	u.dev.Write(u.lay.LineMACAddr(addr), mac[:])
	if owed&eccPending != 0 {
		var ecc [eccSize]byte
		binary.LittleEndian.PutUint32(ecc[:], u.eng.LineECC(&plain))
		u.dev.Write(u.lay.ECCAddr(addr), ecc[:])
	}
}

// ownLine returns the line at addr as a check under counter reads it.
// A line whose data is pending under counter is read as its owner: the
// slot's plaintext, with pending true, and its MAC holds by
// construction, because its value is the MAC of the eager ciphertext
// under that counter — the check's own computation — and any access
// that could change the slot or the MAC slot fills it first. Any other
// line is its NVM ciphertext, filled first if it was owed under another
// counter.
func (u *Unit) ownLine(addr, counter uint64) (line [64]byte, pending bool) {
	i := u.lineIdx(addr)
	if u.written.Get(i)&dataPending != 0 {
		if u.lineCounter.Get(i) == counter {
			return u.dataWB.ReadLine(addr), true
		}
		u.fillLine(i, u.written.Ptr(i))
	}
	return u.dataWB.ReadLine(addr), false
}

// lineHolds reports whether the line at addr verifies under counter: a
// data-pending line produced under counter holds by construction (see
// ownLine), and any other line's stored MAC must match its ciphertext.
func (u *Unit) lineHolds(addr, counter uint64) bool {
	ct, pending := u.ownLine(addr, counter)
	return pending || u.macHolds(addr, counter, &ct)
}

// macHolds reports whether the data MAC stored for the line at addr
// matches ct under counter. It reads only the line's own 8-byte MAC
// slot.
func (u *Unit) macHolds(addr, counter uint64, ct *[64]byte) bool {
	var stored crypt.MAC
	u.dev.Read(u.lay.LineMACAddr(addr), stored[:])
	return u.eng.LineMAC(ct, addr, counter) == stored
}
