package ctr

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// refEncode is the bitstream definition of a counter block's image, one
// bit at a time: the major as 8 little-endian bytes, then minor i's
// 7 bits (bit 7 dropped) at stream bits 7i..7i+6, stream bit k being
// bit k%8 of byte 8+k/8.
func refEncode(b *Block) [BlockSize]byte {
	var out [BlockSize]byte
	binary.LittleEndian.PutUint64(out[:8], b.Major)
	for i, m := range b.Minors {
		for bit := 0; bit < MinorBits; bit++ {
			if m>>bit&1 != 0 {
				k := i*MinorBits + bit
				out[8+k/8] |= 1 << (k % 8)
			}
		}
	}
	return out
}

// refDecode reads a block back from its image by the same definition.
func refDecode(img [BlockSize]byte) Block {
	var b Block
	b.Major = binary.LittleEndian.Uint64(img[:8])
	for i := range b.Minors {
		for bit := 0; bit < MinorBits; bit++ {
			k := i*MinorBits + bit
			if img[8+k/8]>>(k%8)&1 != 0 {
				b.Minors[i] |= 1 << bit
			}
		}
	}
	return b
}

// TestCodecMatchesBitstream pins Encode and DecodeBlock to the
// per-minor bitstream definition, not only to each other: random
// blocks, random bytes as minors (bit 7 set, which Encode drops), the
// all-127 and all-255 blocks, and random images, whose decode the
// reference's must equal.
func TestCodecMatchesBitstream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var blocks []Block
	for _, fill := range []uint8{0, MinorMax, 0xff} {
		b := Block{Major: ^uint64(0)}
		for i := range b.Minors {
			b.Minors[i] = fill
		}
		blocks = append(blocks, b)
	}
	for n := 0; n < 2000; n++ {
		b := Block{Major: rng.Uint64()}
		for i := range b.Minors {
			b.Minors[i] = uint8(rng.Intn(256))
			if n%2 == 0 {
				b.Minors[i] &= MinorMax
			}
		}
		blocks = append(blocks, b)
	}
	for n, b := range blocks {
		img := b.Encode()
		if want := refEncode(&b); img != want {
			t.Fatalf("block %d: Encode = %x, want %x", n, img, want)
		}
		masked := b
		for i := range masked.Minors {
			masked.Minors[i] &= MinorMax
		}
		if got := DecodeBlock(img); got != masked {
			t.Fatalf("block %d: DecodeBlock(Encode) = %v, want %v", n, got, masked)
		}
		var raw [BlockSize]byte
		rng.Read(raw[:])
		if got, want := DecodeBlock(raw), refDecode(raw); got != want {
			t.Fatalf("image %x: DecodeBlock = %v, want %v", raw, got, want)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	blk := Block{Major: 0x1234}
	for i := range blk.Minors {
		blk.Minors[i] = uint8(i * 37 % 128)
	}
	var sink [BlockSize]byte
	for i := 0; i < b.N; i++ {
		blk.Minors[i%LinesPerBlock]++
		sink = blk.Encode()
	}
	_ = sink
}

func BenchmarkDecodeBlock(b *testing.B) {
	blk := Block{Major: 0x1234}
	for i := range blk.Minors {
		blk.Minors[i] = uint8(i * 37 % 128)
	}
	img := blk.Encode()
	var sink Block
	for i := 0; i < b.N; i++ {
		img[8+i%56]++
		sink = DecodeBlock(img)
	}
	_ = sink
}
