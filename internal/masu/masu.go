// Package masu implements the Major Security Unit: the conventional
// secure-memory pipeline that protects the whole NVM with counter-mode
// encryption, per-line MACs and an integrity tree, and that in Dolos runs
// after eviction from the WPQ, off the critical path of persistence
// (Section 4.4, Figure 11).
//
// The unit follows the Anubis recipe for crash consistency: results of
// step 2 (encrypt, MAC, counter block, leaf MAC) are staged in persistent
// redo-log registers before step 3 applies them to the metadata caches
// and NVM; a shadow-tracker region mirrors every dirty metadata block so
// recovery can restore the caches to a state consistent with the eagerly
// updated root. Counters are additionally recoverable via Osiris ECC
// probing (the slow path). Tree node MACs, BMT and ToC alike, are
// computed where they are observed (DESIGN.md §18); CrashVolatile is one
// such point, filling the shadow images (and the BMT redo record's temp
// root) from the refreshed tree.
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
// step 2 output). Ready becomes true once fully staged.
type Op struct {
	Addr     uint64
	Plain    [64]byte
	Cipher   [64]byte
	MAC      crypt.MAC
	Counter  uint64
	ECC      uint32
	Overflow bool

	LeafIndex uint64
	LeafImage [64]byte
	// LeafBlock is LeafImage in decoded form — the same staged counter
	// block both ways, so ApplyWrite can install it into the counter
	// store without re-decoding the image (the image form still feeds
	// the redo record, shadow region and integrity tree).
	LeafBlock ctr.Block

	// LeafMAC is the counter block's BMT leaf MAC. Applying it marks the
	// leaf's path; a redo replay re-marks the same path.
	LeafMAC crypt.MAC

	// ToC is the staged ToC update: the leaf MAC and the absolute
	// version arrays the path nodes and the root take, so a replay is
	// idempotent and overwrites a tampered restored path node.
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
// slot (a zero image is a legal shadow payload). pending marks a tree
// node entry (BMT or ToC) whose image is the node's live image, copied
// in at CrashVolatile (or before any other read) rather than on every
// write.
type shadowEntry struct {
	img     [64]byte
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

	// nodeByAddr maps a tree-node NVM address (64 B granules over
	// [TreeBase, MACBase)) to its packed (level<<56 | index) reference;
	// 0 means unknown, which is unambiguous because tree levels start
	// at 1. A dense table replaced the former map: the write path
	// stores into it once per touched tree node (DESIGN.md §12).
	nodeByAddr *dense.Table[uint64]

	// shadow is the Anubis shadow-tracker region: NVM-resident by
	// construction (it survives CrashVolatile), mirroring every metadata
	// block that is dirty in the caches. Indexed by 64 B granule over
	// [CounterBase, MACBase); shadowCount counts live entries.
	shadow      *dense.Table[shadowEntry]
	shadowCount int

	// written tracks lines that have ever been written (the recovery
	// scan set; in hardware this is a memory scan), indexed by line
	// within the data region; writtenCount counts set bits.
	written      *dense.Table[bool]
	writtenCount int
	// lineCounter records the counter each line's current NVM ciphertext
	// was produced with. Normally equal to the counter store's value; it
	// diverges only transiently during post-overflow page re-encryption,
	// where hardware reads the pre-reset counters from the old block.
	lineCounter *dense.Table[uint64]

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
		nodeByAddr:   dense.NewTable[uint64]((lay.MACBase - lay.TreeBase) / 64),
		shadow:       dense.NewTable[shadowEntry]((lay.MACBase - lay.CounterBase) / 64),
		written:      dense.NewTable[bool](lay.DataSpan / 64),
		lineCounter:  dense.NewTable[uint64](lay.DataSpan / 64),
	}
	switch kind {
	case BMTEager:
		u.bmtTree = bmt.New(eng, dev, lay.TreeBase, lay.Leaves())
	case ToCLazy:
		u.tocTree = toc.New(eng, dev, lay.TreeBase, lay.Leaves())
	}
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

// setNodeRef records the (level, index) identity of a tree node's NVM
// address for victim persistence and shadow replay.
func (u *Unit) setNodeRef(nvmAddr uint64, level int, index uint64) {
	u.nodeByAddr.Set((nvmAddr-u.lay.TreeBase)/64, uint64(level)<<56|index)
}

// nodeRefAt returns the packed (level, index) for a tree-node NVM
// address, or 0 when unknown (levels start at 1, so 0 is never a
// valid reference).
func (u *Unit) nodeRefAt(nvmAddr uint64) uint64 {
	if nvmAddr < u.lay.TreeBase || nvmAddr >= u.lay.MACBase {
		return 0
	}
	return u.nodeByAddr.Get((nvmAddr - u.lay.TreeBase) / 64)
}

// tocLeafMACAddr is where a ToC leaf MAC is persisted.
func (u *Unit) tocLeafMACAddr(leaf uint64) uint64 {
	return u.lay.TreeBase + u.tocTree.RegionBytes() + leaf*crypt.MACSize
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
func (u *Unit) touchTreeNode(nodeAddr uint64, level int, index uint64, write bool, cost *Cost) {
	u.setNodeRef(nodeAddr, level, index)
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
	} else if ref := u.nodeRefAt(nvmAddr); ref != 0 {
		if u.bmtTree != nil {
			u.bmtTree.PersistNode(int(ref>>56), ref&(1<<56-1))
		} else {
			u.tocTree.PersistNode(int(ref>>56), ref&(1<<56-1))
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
// Anubis shadow region (one extra NVM write, off the critical path). A
// nil img marks a tree node entry pending: its image is the node's live
// image, copied when the entry is read (fillShadow).
func (u *Unit) shadowWrite(nvmAddr uint64, img *[64]byte, cost *Cost) {
	if i, ok := u.metaIdx(nvmAddr); ok {
		e := u.shadow.Ptr(i)
		if !e.live {
			e.live = true
			u.shadowCount++
		}
		if img != nil {
			e.img = *img
		}
		e.pending = img == nil
	}
	cost.ShadowWrites++
	cost.NVMWrites++
}

// PrepareWrite performs Figure 11 step 2 for a write to addr: it computes
// the ciphertext, MAC, ECC, counter update and tree update (the BMT leaf
// MAC, or the ToC path), stages everything in the redo-log registers and
// sets the ready bit. No architectural state changes yet.
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
	op.ECC = u.eng.LineECC(&op.Plain)
	op.WPQSlot = wpqSlot
	iv := crypt.MakeIV(addr/nvm.PageSize, uint16(addr%nvm.PageSize/64), prev.Counter)
	u.eng.EncryptLineTo(&op.Cipher, &op.Plain, iv)
	cost.AESOps++
	op.MAC = u.eng.LineMAC(&op.Cipher, addr, prev.Counter)
	cost.TotalMACs++

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
	op.LeafImage = blk.Encode()

	switch u.kind {
	case BMTEager:
		op.LeafMAC = u.bmtTree.LeafMAC(leaf, &op.LeafImage)
		cost.TotalMACs += u.bmtTree.Levels()
	case ToCLazy:
		u.tocTree.Stage(&op.ToC, leaf, &op.LeafImage)
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

	// Counter store: install the staged block image (idempotent, so redo
	// replay after a crash is safe). Overflow forces a persist; a
	// write-through policy forces one on every write and skips the
	// shadow entry (the NVM copy IS the recovery source).
	u.counters.ApplyBlock(op.LeafIndex, &op.LeafBlock, op.Overflow || u.policy.CounterWriteThrough)
	if u.policy.CounterWriteThrough {
		if u.policy.CoalesceCounterWrites && u.haveWTLeaf && u.lastWTLeaf == op.LeafIndex {
			u.coalescedCtr++ // merged with the in-flight write to the same block
		} else {
			cost.NVMWrites++
		}
		u.lastWTLeaf, u.haveWTLeaf = op.LeafIndex, true
	} else {
		u.shadowWrite(u.counters.BlockNVMAddr(op.Addr), &op.LeafImage, &cost)
	}

	// Integrity tree.
	switch u.kind {
	case BMTEager:
		u.bmtTree.SetLeafMAC(op.LeafIndex, op.LeafMAC)
		idx := op.LeafIndex
		for level := 1; level <= u.bmtTree.Levels(); level++ {
			idx /= bmt.Arity
			nodeAddr := u.bmtTree.NodeNVMAddr(level, idx)
			u.touchTreeNode(nodeAddr, level, idx, true, &cost)
			if u.policy.PartialTreePersistence {
				// Triad-NVM: write the first N levels through to NVM;
				// higher levels stay volatile (rebuilt at recovery).
				if level <= u.persistLevels() {
					u.bmtTree.PersistNode(level, idx)
					cost.NVMWrites++
				}
			} else {
				u.shadowWrite(nodeAddr, nil, &cost)
			}
		}
	case ToCLazy:
		u.tocTree.Apply(&op.ToC)
		idx := op.LeafIndex
		for level := 1; level <= u.tocTree.Levels(); level++ {
			idx /= toc.Arity
			nodeAddr := u.tocTree.NodeNVMAddr(level, idx)
			u.touchTreeNode(nodeAddr, level, idx, true, &cost)
			u.shadowWrite(nodeAddr, nil, &cost)
		}
		u.dev.Write(u.tocLeafMACAddr(op.LeafIndex), op.ToC.LeafMAC[:])
		cost.NVMWrites++
	}

	// Data, MAC and ECC to NVM.
	u.dev.WriteLine(op.Addr, op.Cipher)
	var macBytes [8]byte
	copy(macBytes[:], op.MAC[:])
	u.dev.Write(u.lay.LineMACAddr(op.Addr), macBytes[:])
	cost.NVMWrites++
	var eccBytes [4]byte
	binary.LittleEndian.PutUint32(eccBytes[:], op.ECC)
	u.dev.Write(u.lay.ECCAddr(op.Addr), eccBytes[:])
	cost.NVMWrites++ // MAC+ECC share a metadata write slot in the model

	wi := u.lineIdx(op.Addr)
	wp := u.written.Ptr(wi)
	if !*wp {
		*wp = true
		u.writtenCount++
	}
	u.lineCounter.Set(wi, op.Counter)
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
// counter overflow gave the whole page fresh counters. Previously
// written lines are decrypted with the counter their ciphertext was
// produced under and re-encrypted under the reset counter; never-written
// lines get their defined zero content encrypted too, because the reset
// leaves them with a nonzero counter and the invariant "counter != 0
// implies valid ciphertext+MAC" must hold for the read path and for
// recovery audits.
func (u *Unit) reencryptPage(addr uint64) Cost {
	var cost Cost
	page := addr / nvm.PageSize * nvm.PageSize
	for a := page; a < page+nvm.PageSize; a += 64 {
		if a == addr {
			continue
		}
		newCtr := u.counters.Counter(a)
		ai := u.lineIdx(a)
		var plain [64]byte
		if wp := u.written.Ptr(ai); *wp {
			oldCtr := u.lineCounter.Get(ai)
			ct := u.dev.ReadLine(a)
			ivOld := crypt.MakeIV(a/nvm.PageSize, uint16(a%nvm.PageSize/64), oldCtr)
			u.eng.DecryptLineTo(&plain, &ct, ivOld)
			cost.AESOps++
		} else {
			*wp = true
			u.writtenCount++
			var eccBytes [4]byte
			binary.LittleEndian.PutUint32(eccBytes[:], u.eng.LineECC(&plain))
			u.dev.Write(u.lay.ECCAddr(a), eccBytes[:])
		}
		ivNew := crypt.MakeIV(a/nvm.PageSize, uint16(a%nvm.PageSize/64), newCtr)
		var ct2 [64]byte
		u.eng.EncryptLineTo(&ct2, &plain, ivNew)
		u.dev.WriteLine(a, ct2)
		mac := u.eng.LineMAC(&ct2, a, newCtr)
		var macBytes [8]byte
		copy(macBytes[:], mac[:])
		u.dev.Write(u.lay.LineMACAddr(a), macBytes[:])
		u.lineCounter.Set(ai, newCtr)
		cost.ReencryptedLines++
		cost.AESOps++
		cost.TotalMACs++
		cost.NVMWrites += 2
	}
	return cost
}
