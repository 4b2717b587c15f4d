package crypt

import "encoding/binary"

// FastEngine is the latency-only Provider: every primitive is a cheap
// deterministic stand-in for the functional one. Pads are all-zero (so
// CTR "encryption" is the identity and the simulated device holds the
// plaintext), MACs fold address/position and freshness with a 64-bit
// multiply mix, and the ECC check is an 8-word fold. The stand-ins are
// internally consistent — a value computed at write time reproduces at
// verify time — so every benign-path MAC/ECC comparison in the model
// still passes, while no SHA-256 or AES round is ever executed.
//
// None of this is cryptography: ciphertext leaks plaintext, MACs ignore
// content, tampering is undetectable. The recovery and audit paths
// refuse a non-Functional provider (see masu), and crash.NewDriver
// rejects FastMode configurations outright. Fast mode exists purely to
// measure the timing model — which, by construction (DESIGN.md §14),
// never reads a crypto byte — at full host speed.
type FastEngine struct{}

// NewFastEngine creates the latency-only provider. It is stateless;
// one value may serve any number of units.
func NewFastEngine() *FastEngine { return &FastEngine{} }

// Functional reports that this engine fakes its cryptographic values.
func (*FastEngine) Functional() bool { return false }

// GeneratePad returns the all-zero pad: XOR with it is the identity, so
// fast-mode "ciphertext" equals plaintext everywhere, which keeps the
// functional plumbing (WPQ decrypt-on-read, Ma-SU re-encryption)
// value-consistent without any AES work.
func (*FastEngine) GeneratePad(IV) Pad { return Pad{} }

// GeneratePadInto writes the all-zero pad into *pad.
func (*FastEngine) GeneratePadInto(pad *Pad, _ IV) { *pad = Pad{} }

// EncryptLine returns the line unchanged (zero pad).
func (*FastEngine) EncryptLine(plain [BlockSize]byte, _ IV) [BlockSize]byte { return plain }

// EncryptLineTo copies *src to *dst (zero pad).
func (*FastEngine) EncryptLineTo(dst, src *[BlockSize]byte, _ IV) { *dst = *src }

// DecryptLine returns the line unchanged (zero pad).
func (*FastEngine) DecryptLine(ct [BlockSize]byte, _ IV) [BlockSize]byte { return ct }

// DecryptLineTo copies *src to *dst (zero pad).
func (*FastEngine) DecryptLineTo(dst, src *[BlockSize]byte, _ IV) { *dst = *src }

// mix64 is a SplitMix64-style finalizer: enough diffusion that distinct
// (addr, counter) pairs land on distinct MACs in practice, at three
// multiplies of cost.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// LineMAC binds address and counter only — the ciphertext is ignored,
// which is what makes it O(1). Write and verify see the same
// (addr, counter), so benign verification always passes; content
// tampering passes too, which is why fast mode is barred from the
// attack/recovery suites.
func (*FastEngine) LineMAC(_ *[BlockSize]byte, addr, counter uint64) MAC {
	var m MAC
	binary.LittleEndian.PutUint64(m[:], mix64(addr^mix64(counter)))
	return m
}

// NodeMAC binds position and payload length only, for the same reason
// as LineMAC.
func (*FastEngine) NodeMAC(payload []byte, position uint64) MAC {
	var m MAC
	binary.LittleEndian.PutUint64(m[:], mix64(position^uint64(len(payload))<<48))
	return m
}

// LineECC folds the eight 64-bit words of the line through the mix —
// content-dependent (the Osiris probe distinguishes candidate counters
// by decrypted content) but far from collision-resistant.
func (*FastEngine) LineECC(plain *[BlockSize]byte) uint32 {
	var acc uint64
	for i := 0; i < BlockSize; i += 8 {
		acc = mix64(acc ^ binary.LittleEndian.Uint64(plain[i:]))
	}
	return uint32(acc)
}
