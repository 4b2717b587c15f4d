package masu

import "testing"

func BenchmarkProcessWriteEager(b *testing.B) {
	u, _, _ := newUnit(BMTEager)
	p := line(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.ProcessWrite(0x1000+uint64(i%4096)*64, p, -1)
	}
}

func BenchmarkProcessWriteLazy(b *testing.B) {
	u, _, _ := newUnit(ToCLazy)
	p := line(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.ProcessWrite(0x1000+uint64(i%4096)*64, p, -1)
	}
}

func BenchmarkReadLineVerified(b *testing.B) {
	u, _, _ := newUnit(BMTEager)
	p := line(1)
	for i := uint64(0); i < 256; i++ {
		u.ProcessWrite(0x1000+i*64, p, -1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := u.ReadLine(0x1000 + uint64(i%256)*64); err != nil {
			b.Fatal(err)
		}
	}
}

// The recovery benchmarks time a crash with its recovery: CrashVolatile
// writes what the crash observes, the pending data lines' ciphertexts,
// MACs and ECC words included, so that work is timed with the recovery
// it precedes.
func BenchmarkAnubisRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u, _, _ := newUnit(BMTEager)
		p := line(1)
		for j := uint64(0); j < 64; j++ {
			u.ProcessWrite(0x1000+j*64, p, -1)
		}
		b.StartTimer()
		u.CrashVolatile()
		if _, err := u.RecoverAnubis(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOsirisRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u, _, _ := newUnit(BMTEager)
		p := line(1)
		for j := uint64(0); j < 64; j++ {
			u.ProcessWrite(0x1000+j*64, p, -1)
		}
		b.StartTimer()
		u.CrashVolatile()
		u.WipeShadow()
		if _, err := u.RecoverOsiris(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAudit audits a written image the way a benchmark cell's
// check does: 8192 writes to 4096 lines of 64 pages, then (timed) the
// device's page count and the Ma-SU's audit of every written line. The
// page count is the first observation of the data, MAC and ECC regions,
// so it fills the lines' pending ciphertexts, MACs and ECC words.
func BenchmarkAudit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u, dev, _ := newUnit(BMTEager)
		p := line(1)
		for j := uint64(0); j < 8192; j++ {
			u.ProcessWrite(0x1000+j%4096*64, p, -1)
		}
		b.StartTimer()
		dev.AllocatedPages()
		if n, err := u.Audit(); err != nil || n != 4096 {
			b.Fatalf("audit verified %d lines: %v", n, err)
		}
	}
}
