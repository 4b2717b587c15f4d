package crypt

import "testing"

func BenchmarkGeneratePad(b *testing.B) {
	e := testEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.GeneratePad(MakeIV(uint64(i), uint16(i), uint64(i)))
	}
}

func BenchmarkEncryptLine(b *testing.B) {
	e := testEngine()
	var plain [BlockSize]byte
	iv := MakeIV(1, 2, 3)
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.EncryptLine(plain, iv)
	}
}

func BenchmarkXOR(b *testing.B) {
	e := testEngine()
	pad := e.GeneratePad(MakeIV(1, 2, 3))
	var line [BlockSize]byte
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		XOR(&line, &line, &pad)
	}
}

func BenchmarkLineMAC(b *testing.B) {
	e := testEngine()
	var ct [BlockSize]byte
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.LineMAC(&ct, uint64(i), uint64(i))
	}
}

func BenchmarkECC(b *testing.B) {
	var plain [BlockSize]byte
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		_ = ECC(&plain)
	}
}
