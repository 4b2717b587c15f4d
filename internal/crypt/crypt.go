// Package crypt implements the cryptographic primitives of the Dolos model:
// AES-128 counter-mode encryption pads, the initialization-vector layout of
// Figure 2 (page ID, page offset, counter, padding), and 8-byte MACs over
// ciphertext + address + counter. The primitives are functional — real AES,
// real hashes — so confidentiality and integrity properties are testable
// end to end, while performance models use the latency constants from
// Table 1 of the paper.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"

	"dolos/internal/sim"
)

// Latency constants from Table 1 (4 GHz core).
const (
	// AESLatency is the latency of one AES operation (pad generation).
	AESLatency sim.Cycle = 40
	// MACLatency is the latency of one MAC computation.
	MACLatency sim.Cycle = 160
	// XORLatency is the cost of XOR-ing a pre-generated pad with a line.
	XORLatency sim.Cycle = 1
)

// BlockSize is the cache-line / memory-block granularity (bytes).
const BlockSize = 64

// MACSize is the size of a truncated MAC in bytes (8-byte MACs, as the
// paper assumes for WPQ entries and BMT nodes).
const MACSize = 8

// Pad is a 64-byte one-time encryption pad for one memory block.
type Pad [BlockSize]byte

// Provider is the crypto seam between the security units and the
// primitive implementations. Two implementations exist:
//
//   - *Engine — the functional provider: real AES-CTR pads, real
//     truncated-SHA-256 MACs. Crash, recovery and attack experiments
//     require it, because they read the bytes back and verify them.
//   - *FastEngine — the latency-only provider for perf-mode runs:
//     identity "encryption" and constant-time fold MACs. Timing in the
//     model is charged from the Table 1 latency constants and cost
//     counts, never from crypto byte values, so every deterministic
//     field of a run is bit-identical between providers while the
//     SHA-256/AES host cost disappears.
//
// Functional reports which side of that split an implementation is on;
// security-sensitive paths (recovery, audits) refuse to run when it
// returns false.
type Provider interface {
	// Functional reports whether pads, MACs and ECC are real
	// cryptographic values (true) or latency-only fakes (false).
	Functional() bool
	// GeneratePad produces the 64-byte CTR-mode pad for iv.
	GeneratePad(iv IV) Pad
	// GeneratePadInto writes the pad for iv into *pad without
	// allocating.
	GeneratePadInto(pad *Pad, iv IV)
	// EncryptLine encrypts a 64-byte plaintext line with the pad for iv.
	EncryptLine(plain [BlockSize]byte, iv IV) [BlockSize]byte
	// EncryptLineTo encrypts *src into *dst (they may alias).
	EncryptLineTo(dst, src *[BlockSize]byte, iv IV)
	// DecryptLine decrypts a 64-byte ciphertext line with the pad for iv.
	DecryptLine(ct [BlockSize]byte, iv IV) [BlockSize]byte
	// DecryptLineTo decrypts *src into *dst (they may alias).
	DecryptLineTo(dst, src *[BlockSize]byte, iv IV)
	// LineMAC computes the 8-byte MAC over (ciphertext, address, counter).
	LineMAC(ct *[BlockSize]byte, addr, counter uint64) MAC
	// NodeMAC computes the 8-byte MAC over a node payload plus position.
	NodeMAC(payload []byte, position uint64) MAC
	// LineECC computes the 4-byte Osiris-style check over a plaintext line.
	LineECC(plain *[BlockSize]byte) uint32
}

// Both engines satisfy the seam.
var (
	_ Provider = (*Engine)(nil)
	_ Provider = (*FastEngine)(nil)
)

// MAC is an 8-byte truncated message authentication code.
type MAC [MACSize]byte

// IV is the 16-byte AES-CTR initialization vector of Figure 2.
type IV [16]byte

// MakeIV assembles an IV from the block's page ID, the page offset of the
// line within the page, and the line's encryption counter. The layout
// mirrors Figure 2: page ID (6 bytes) | page offset (2 bytes) |
// counter (8 bytes). Spatial uniqueness comes from pageID+offset, temporal
// uniqueness from the counter.
func MakeIV(pageID uint64, pageOffset uint16, counter uint64) IV {
	var iv IV
	binary.LittleEndian.PutUint64(iv[0:8], pageID<<16|uint64(pageOffset))
	binary.LittleEndian.PutUint64(iv[8:16], counter)
	return iv
}

// Engine holds a processor-side encryption key and MAC key. In SGX-like
// designs these are generated at boot inside the processor; here they are
// supplied by the caller so crash-recovery tests can model the persistent
// processor key registers.
type Engine struct {
	block  cipher.Block
	macKey [16]byte

	// Scratch buffers for CTR pad generation. Anything passed to the
	// cipher.Block interface escapes (the compiler cannot see through
	// the dynamic call), so using locals would heap-allocate a lane
	// input and a pad per call. The engine is owned by one simulated
	// system and the event loop is single-threaded, so one scratch set
	// per engine is safe; parallel sweeps build a system — and an
	// engine — per cell.
	ctrIn  [16]byte
	ctrPad Pad

	// MAC digest-input scratch, macKey pre-filled in the first 16 bytes
	// at construction. A stack buffer would need a fresh zero-fill and
	// key copy on every MAC, and the model computes up to 10 serial MACs
	// per persisted line; reusing engine memory leaves only the varying
	// bytes to write. Same single-threaded ownership argument as above.
	lineBuf [16 + 16 + BlockSize]byte
	nodeBuf [nodeMACBufSize]byte
}

// NewEngine creates an engine from a 16-byte AES key and a 16-byte MAC key.
func NewEngine(aesKey, macKey [16]byte) *Engine {
	block, err := aes.NewCipher(aesKey[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key sizes, which the
		// fixed-size array rules out.
		panic("crypt: " + err.Error())
	}
	e := &Engine{block: block}
	e.macKey = macKey
	copy(e.lineBuf[0:16], macKey[:])
	copy(e.nodeBuf[0:16], macKey[:])
	return e
}

// GeneratePad produces the 64-byte CTR-mode pad for the given IV: four AES
// blocks of (IV with a lane index mixed into the top bits).
func (e *Engine) GeneratePad(iv IV) Pad {
	var pad Pad
	e.GeneratePadInto(&pad, iv)
	return pad
}

// GeneratePadInto writes the CTR-mode pad for iv into *pad. It is the
// allocation-free form of GeneratePad: the AES blocks are produced in
// the engine's scratch pad (only engine-owned memory touches the cipher
// interface, so the caller's buffer never escapes) and copied out once.
func (e *Engine) GeneratePadInto(pad *Pad, iv IV) {
	for lane := 0; lane < BlockSize/16; lane++ {
		e.ctrIn = iv
		e.ctrIn[15] ^= byte(lane + 1) // lane counter within the 64 B block
		e.block.Encrypt(e.ctrPad[lane*16:(lane+1)*16], e.ctrIn[:])
	}
	*pad = e.ctrPad
}

// XOR applies pad to the 64-byte line src, writing the result to dst.
// Encryption and decryption are the same operation in counter mode.
// dst and src may alias.
func XOR(dst, src *[BlockSize]byte, pad *Pad) {
	for i := 0; i < BlockSize; i += 8 {
		v := binary.LittleEndian.Uint64(src[i:]) ^ binary.LittleEndian.Uint64(pad[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
}

// EncryptLine encrypts a 64-byte plaintext line with the pad for iv.
func (e *Engine) EncryptLine(plain [BlockSize]byte, iv IV) [BlockSize]byte {
	var out [BlockSize]byte
	e.EncryptLineTo(&out, &plain, iv)
	return out
}

// EncryptLineTo encrypts the 64-byte line *src with the pad for iv,
// writing the result to *dst. dst and src may alias. This is the
// allocation-free form used by the write path: no 64-byte values move
// through return slots.
func (e *Engine) EncryptLineTo(dst, src *[BlockSize]byte, iv IV) {
	var pad Pad
	e.GeneratePadInto(&pad, iv)
	XOR(dst, src, &pad)
}

// DecryptLine decrypts a 64-byte ciphertext line with the pad for iv.
func (e *Engine) DecryptLine(ct [BlockSize]byte, iv IV) [BlockSize]byte {
	return e.EncryptLine(ct, iv) // CTR is symmetric
}

// DecryptLineTo decrypts the 64-byte line *src into *dst (CTR is
// symmetric, so this is EncryptLineTo under another name).
func (e *Engine) DecryptLineTo(dst, src *[BlockSize]byte, iv IV) {
	e.EncryptLineTo(dst, src, iv)
}

// LineMAC computes the 8-byte MAC over (ciphertext, address, counter) as
// in a Bonsai Merkle Tree data MAC: the MT-verifiable counter binds
// freshness, the address binds location, the ciphertext binds content.
//
// The digest input is assembled in the engine's key-prefilled scratch
// and hashed with the one-shot sha256.Sum256 — byte-identical to the
// former streaming macKey‖addr,counter‖ct writes, but with zero heap
// allocations and no per-call buffer zeroing (the streaming form paid a
// hasher allocation plus the Sum(nil) copy per MAC, and the model
// computes up to 10 serial MACs per persisted line).
func (e *Engine) LineMAC(ct *[BlockSize]byte, addr, counter uint64) MAC {
	buf := &e.lineBuf // [0:16] holds macKey since construction
	binary.LittleEndian.PutUint64(buf[16:24], addr)
	binary.LittleEndian.PutUint64(buf[24:32], counter)
	copy(buf[32:], ct[:])
	sum := sha256.Sum256(buf[:])
	var m MAC
	copy(m[:], sum[:MACSize])
	return m
}

// nodeMACBufSize sizes the node-MAC scratch: key (16) + position (8) +
// the largest payload in the model. The integrity trees hash 64-byte
// BMT nodes and 72-byte ToC images; the Mi-SU's Full-WPQ L1 group MAC
// concatenates eight 72-byte WPQ entry records, 576 bytes — undersizing
// that bound would silently heap-allocate on every WPQ tree update,
// which is exactly the per-insert hot path.
const nodeMACBufSize = 16 + 8 + 576

// NodeMAC computes the 8-byte MAC over an arbitrary node payload plus a
// position tag, used for integrity-tree nodes and the Mi-SU WPQ tree.
// Payloads up to 576 bytes (every MAC input in the model) assemble
// macKey‖position‖payload in the engine's key-prefilled scratch and
// hash in one shot, with zero allocations; larger payloads take a
// one-shot fallback with the identical digest stream.
func (e *Engine) NodeMAC(payload []byte, position uint64) MAC {
	buf := e.nodeBuf[:] // [0:16] holds macKey since construction
	if len(payload) > nodeMACBufSize-24 {
		// Oversized payloads (none in the model) take one allocation.
		buf = make([]byte, 24+len(payload))
		copy(buf[0:16], e.macKey[:])
	}
	binary.LittleEndian.PutUint64(buf[16:24], position)
	n := 24 + copy(buf[24:], payload)
	sum := sha256.Sum256(buf[:n])
	var m MAC
	copy(m[:], sum[:MACSize])
	return m
}

// Functional reports that this engine computes real cryptographic values.
func (e *Engine) Functional() bool { return true }

// LineECC computes the Osiris check through the provider seam; it is
// exactly the package-level ECC.
func (e *Engine) LineECC(plain *[BlockSize]byte) uint32 { return ECC(plain) }

// ECC computes the 4-byte Osiris-style sanity check over a plaintext line.
// The real Osiris reuses the memory ECC bits; we model them as a small
// digest stored alongside the ciphertext, which plays the same role: a
// check that identifies the correct decryption counter during recovery.
func ECC(plain *[BlockSize]byte) uint32 {
	sum := sha256.Sum256(plain[:])
	return binary.LittleEndian.Uint32(sum[:4])
}
