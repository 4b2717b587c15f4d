// Package ctr implements the encryption counters of the secure memory
// model: split counter blocks (one 64-bit major counter plus 64 7-bit
// minor counters per 64-byte block, covering one 4 KB data page), their
// persistent storage in a dedicated NVM region, and Osiris-style counter
// recovery, where counters are only persisted every Nth update and the
// crash-time value is re-identified by probing candidates against an
// ECC-style plaintext check.
package ctr

import (
	"encoding/binary"
	"fmt"

	"dolos/internal/dense"
	"dolos/internal/nvm"
)

// Geometry constants.
const (
	// LinesPerBlock is the number of minor counters in one counter block:
	// one per 64 B line of a 4 KB page.
	LinesPerBlock = 64
	// BlockSize is the size of one counter block in NVM (64 bytes:
	// 8-byte major + 56 bytes of packed 7-bit minors).
	BlockSize = 64
	// MinorBits is the width of a minor counter.
	MinorBits = 7
	// MinorMax is the largest minor counter value before overflow.
	MinorMax = 1<<MinorBits - 1
	// DefaultOsirisPeriod is how many block updates elapse between
	// persists of the counter block (Osiris' "write counters every Nth
	// update" parameter).
	DefaultOsirisPeriod = 4
)

// Block is the in-controller representation of one counter block.
type Block struct {
	Major  uint64
	Minors [LinesPerBlock]uint8 // 7-bit values
}

// Counter returns the effective per-line encryption counter for the line
// at index idx: the concatenation of major and minor.
func (b *Block) Counter(idx int) uint64 {
	return b.Major<<MinorBits | uint64(b.Minors[idx])
}

// Encode packs the block into its 64-byte NVM image: the 8-byte
// little-endian major followed by 64 7-bit minors as a little-endian
// bitstream. Eight minors fill exactly 56 bits, so each group of eight
// packs into one uint64 and lands on a 7-byte boundary. A group packs a
// word at a time (packMinors), so the codec, which runs on every
// counter persist, dirty counter victim and leaf hash, makes no
// per-minor pass.
func (b *Block) Encode() [BlockSize]byte {
	var out [BlockSize]byte
	binary.LittleEndian.PutUint64(out[0:8], b.Major)
	for g := 0; g < 7; g++ {
		// w's top byte is zero; the next group overwrites it with its
		// own low byte.
		w := packMinors(binary.LittleEndian.Uint64(b.Minors[g*8:]))
		binary.LittleEndian.PutUint64(out[8+g*7:], w)
	}
	// The last group: only 7 bytes remain.
	w := packMinors(binary.LittleEndian.Uint64(b.Minors[56:]))
	binary.LittleEndian.PutUint32(out[57:], uint32(w))
	binary.LittleEndian.PutUint16(out[61:], uint16(w>>32))
	out[63] = byte(w >> 48)
	return out
}

// DecodeBlock unpacks a 64-byte NVM image into a Block (the inverse of
// Encode, a word at a time).
func DecodeBlock(img [BlockSize]byte) Block {
	var b Block
	b.Major = binary.LittleEndian.Uint64(img[0:8])
	for g := 0; g < 7; g++ {
		// The load overlaps the next group's first byte, which
		// unpackMinors drops.
		binary.LittleEndian.PutUint64(b.Minors[g*8:], unpackMinors(binary.LittleEndian.Uint64(img[8+g*7:])))
	}
	w := uint64(binary.LittleEndian.Uint32(img[57:])) |
		uint64(binary.LittleEndian.Uint16(img[61:]))<<32 |
		uint64(img[63])<<48
	binary.LittleEndian.PutUint64(b.Minors[56:], unpackMinors(w))
	return b
}

// packMinors packs the eight minors of w, one per byte (little-endian,
// bit 7 ignored), into its low 56 bits, minor j at bit 7j. Each step
// halves the number of lanes: it closes the gap between the two values
// of every 16-bit lane (one bit), then of every 32-bit lane (two bits),
// then of the word (four bits).
func packMinors(w uint64) uint64 {
	w &= 0x7f7f7f7f7f7f7f7f
	w = w&0x007f007f007f007f | w>>1&0x3f803f803f803f80
	w = w&0x00003fff00003fff | w>>2&0x0fffc0000fffc000
	return w&0x000000000fffffff | w>>4&0x00fffffff0000000
}

// unpackMinors is the inverse of packMinors: it spreads the low 56
// bits of w, minor j at bit 7j, to one minor per byte. Bits 56-63 are
// ignored.
func unpackMinors(w uint64) uint64 {
	w = w&0x000000000fffffff | w<<4&0x0fffffff00000000
	w = w&0x00003fff00003fff | w<<2&0x3fff00003fff0000
	return w&0x007f007f007f007f | w<<1&0x7f007f007f007f00
}

// Store manages the counters for a contiguous data region. The current
// (architectural) counters live in volatile state — modelling the counter
// cache plus in-flight registers — and are persisted to the NVM counter
// region on Osiris period boundaries, minor-counter overflows, and
// explicit evictions. A power failure drops the volatile state; recovery
// goes through Recover* methods.
type Store struct {
	dev      *nvm.Device
	base     uint64 // NVM address of the counter region
	dataBase uint64 // first data byte covered
	dataSpan uint64 // bytes of data covered
	period   uint64

	// volatile holds the live (architectural) counter blocks, indexed
	// by page index; nil = not resident. updates counts block updates
	// since the last persist. Both are dense tables sized to the
	// covered span — the per-write lookups were the hottest map
	// operations in the seed profile (DESIGN.md §12). live counts the
	// non-nil volatile entries.
	volatile *dense.Table[*Block] // page index -> live block
	updates  *dense.Table[uint64] // page index -> updates since last persist
	live     int

	persists uint64
}

// NewStore creates a counter store covering dataSpan bytes of data
// starting at dataBase, with counter blocks stored at base in dev.
// period 0 selects DefaultOsirisPeriod.
func NewStore(dev *nvm.Device, base, dataBase, dataSpan uint64, period uint64) *Store {
	if period == 0 {
		period = DefaultOsirisPeriod
	}
	pages := (dataSpan + nvm.PageSize - 1) / nvm.PageSize
	return &Store{
		dev:      dev,
		base:     base,
		dataBase: dataBase,
		dataSpan: dataSpan,
		period:   period,
		volatile: dense.NewTable[*Block](pages),
		updates:  dense.NewTable[uint64](pages),
	}
}

// RegionBytes returns the size of the counter region needed for the
// covered data span: one 64 B block per 4 KB page.
func (s *Store) RegionBytes() uint64 { return (s.dataSpan / nvm.PageSize) * BlockSize }

// Persists returns the number of counter-block persists to NVM.
func (s *Store) Persists() uint64 { return s.persists }

// Period returns the Osiris persist period.
func (s *Store) Period() uint64 { return s.period }

// pageIndex maps a data address to its covering page index.
func (s *Store) pageIndex(addr uint64) uint64 {
	if addr < s.dataBase || addr >= s.dataBase+s.dataSpan {
		panic(fmt.Sprintf("ctr: data address %#x outside covered region", addr))
	}
	return (addr - s.dataBase) / nvm.PageSize
}

// lineIndex maps a data address to its minor-counter slot.
func lineIndex(addr uint64) int { return int(addr/nvm.LineSize) % LinesPerBlock }

// BlockAddr returns the NVM address of page pi's counter block.
func (s *Store) BlockAddr(pi uint64) uint64 { return s.base + pi*BlockSize }

// block returns the live block for the page covering addr, loading it
// from NVM on first touch.
func (s *Store) block(addr uint64) *Block { return s.Live(s.pageIndex(addr)) }

// Live returns page pi's live counter block, loading it from NVM on
// first touch. The pointer stays the page's live block until
// DropVolatile.
func (s *Store) Live(pi uint64) *Block {
	slot := s.volatile.Ptr(pi)
	if *slot == nil {
		img := s.dev.ReadLine(s.base + pi*BlockSize)
		blk := DecodeBlock(img)
		*slot = &blk
		s.live++
	}
	return *slot
}

// Counter returns the current effective counter for addr's line.
func (s *Store) Counter(addr uint64) uint64 {
	return s.block(addr).Counter(lineIndex(addr))
}

// persist writes page pi's live block b to the NVM counter region.
func (s *Store) persist(pi uint64, b *Block) {
	s.dev.WriteLine(s.base+pi*BlockSize, b.Encode())
	s.persists++
}

// PersistAddr persists the counter block covering addr (counter-cache
// eviction of a dirty block, or an Anubis-style forced persist).
func (s *Store) PersistAddr(addr uint64) {
	pi := s.pageIndex(addr)
	if b := s.volatile.Get(pi); b != nil {
		s.persist(pi, b)
	}
}

// PersistAll persists every live block (clean shutdown), in ascending
// page order.
func (s *Store) PersistAll() {
	s.volatile.Range(func(pi uint64, b **Block) bool {
		if *b != nil {
			s.persist(pi, *b)
		}
		return true
	})
}

// DropVolatile models power failure: all live (cached) counter state is
// lost; only what was persisted to NVM survives.
func (s *Store) DropVolatile() {
	s.volatile.Reset()
	s.updates.Reset()
	s.live = 0
}

// StoredCounter returns the persisted (NVM) counter for addr's line,
// which may lag the architectural counter by up to the Osiris period.
func (s *Store) StoredCounter(addr uint64) uint64 {
	pi := s.pageIndex(addr)
	img := s.dev.ReadLine(s.base + pi*BlockSize)
	b := DecodeBlock(img)
	return b.Counter(lineIndex(addr))
}

// RecoverLine performs the Osiris probe for addr's line: starting from the
// persisted counter, it tries successive candidates (up to the period,
// plus the overflow edge) until verify accepts one — verify typically
// decrypts the line with the candidate and compares the stored ECC. On
// success the live counter state is restored. The number of candidates
// tried is returned for recovery-cost accounting.
func (s *Store) RecoverLine(addr uint64, verify func(counter uint64) bool) (counter uint64, tried int, ok bool) {
	stored := s.StoredCounter(addr)
	for k := uint64(0); k <= s.period; k++ {
		tried++
		if verify(stored + k) {
			s.setCounter(addr, stored+k)
			return stored + k, tried, true
		}
	}
	return 0, tried, false
}

// setCounter forces addr's line counter to the given effective value,
// used after a successful Osiris probe.
func (s *Store) setCounter(addr uint64, counter uint64) {
	b := s.block(addr)
	li := lineIndex(addr)
	b.Major = counter >> MinorBits
	b.Minors[li] = uint8(counter & MinorMax)
}

// ImageByIndex returns the current 64-byte image of page pi's counter
// block (the integrity-tree leaf image).
func (s *Store) ImageByIndex(pi uint64) [BlockSize]byte {
	b := s.volatile.Get(pi)
	if b == nil {
		return s.dev.ReadLine(s.base + pi*BlockSize)
	}
	return b.Encode()
}

// ApplyBlock installs blk, a counter block the Ma-SU staged in its redo
// record, as page pi's live block, advancing the page's update count
// and applying the Osiris persist policy: the block is persisted when
// forcePersist is set (a minor-counter overflow, a write-through policy)
// or the count reaches a period boundary. Installing a staged block
// twice leaves the block it installed once, which makes redo replay
// after a crash safe.
func (s *Store) ApplyBlock(pi uint64, blk *Block, forcePersist bool) {
	slot := s.volatile.Ptr(pi)
	if *slot == nil {
		*slot = new(Block)
		s.live++
	}
	s.Commit(pi, *slot, blk, forcePersist)
}

// Commit is ApplyBlock for a caller that holds page pi's live block,
// live, as Live returned it: it installs blk there without looking the
// page up again.
func (s *Store) Commit(pi uint64, live, blk *Block, forcePersist bool) {
	*live = *blk
	up := s.updates.Ptr(pi)
	*up++
	if forcePersist || *up%s.period == 0 {
		s.persist(pi, live)
	}
}

// ApplyRun applies one update per entry of slots, in order, to page pi's
// live block: each advances that line's minor counter, exactly as
// ApplyBlock does with the line's staged block. It leaves what one
// ApplyBlock per update leaves: every Osiris period point the updates
// reach — every update when persistEach — counts as a persist, and the
// block's NVM image is what the last of them wrote. It writes that image
// once, since the persists before it are overwritten. An update that
// would overflow a minor counter is not a run's: it panics.
func (s *Store) ApplyRun(pi uint64, slots []uint8, persistEach bool) {
	b := s.volatile.Get(pi)
	up := s.updates.Ptr(pi)
	n := uint64(len(slots))
	// Update k (1-based) persists when its count, *up+k, is a multiple
	// of the period; last is the latest such k, 0 when there is none.
	persists, last := n, n
	if !persistEach {
		persists = (*up+n)/s.period - *up/s.period
		last = 0
		if persists > 0 {
			last = n - (*up+n)%s.period
		}
	}
	for k, li := range slots {
		if b.Minors[li] == MinorMax {
			panic(fmt.Sprintf("ctr: run update overflows page %d line %d", pi, li))
		}
		b.Minors[li]++
		if uint64(k+1) == last {
			s.dev.WriteLine(s.base+pi*BlockSize, b.Encode())
		}
	}
	*up += n
	s.persists += persists
}

// PersistByIndex persists page pi's counter block if live (metadata-cache
// eviction keyed by NVM address).
func (s *Store) PersistByIndex(pi uint64) {
	if b := s.volatile.Get(pi); b != nil {
		s.persist(pi, b)
	}
}

// RestoreByIndex installs a counter-block image into live state (Anubis
// shadow replay during recovery).
func (s *Store) RestoreByIndex(pi uint64, img [BlockSize]byte) {
	slot := s.volatile.Ptr(pi)
	if *slot == nil {
		*slot = new(Block)
		s.live++
	}
	**slot = DecodeBlock(img)
}

// PageIndexOfNVMAddr maps a counter-region NVM address back to its page
// index; ok is false for addresses outside the region.
func (s *Store) PageIndexOfNVMAddr(nvmAddr uint64) (uint64, bool) {
	if nvmAddr < s.base || nvmAddr >= s.base+s.RegionBytes() {
		return 0, false
	}
	return (nvmAddr - s.base) / BlockSize, true
}

// TouchedPages returns the indices of pages with live counter blocks,
// in ascending order.
func (s *Store) TouchedPages() []uint64 {
	out := make([]uint64, 0, s.live)
	s.volatile.Range(func(pi uint64, b **Block) bool {
		if *b != nil {
			out = append(out, pi)
		}
		return true
	})
	return out
}
