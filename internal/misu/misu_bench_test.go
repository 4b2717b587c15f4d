package misu

import "testing"

func benchProtect(b *testing.B, d Design) {
	u, _ := newUnit(d, d.Entries(16))
	p := line(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := u.Protect(uint64(i%8+1)*64, &p)
		if d == PostWPQ {
			u.CompleteDeferredMAC(slot)
		}
		u.Queue().Clear(slot)
	}
}

func BenchmarkProtectFull(b *testing.B)    { benchProtect(b, FullWPQ) }
func BenchmarkProtectPartial(b *testing.B) { benchProtect(b, PartialWPQ) }
func BenchmarkProtectPost(b *testing.B)    { benchProtect(b, PostWPQ) }

func BenchmarkDrainRecover(b *testing.B) {
	p := line(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u, _ := newUnit(PartialWPQ, 13)
		for j := uint64(1); j <= 13; j++ {
			u.Protect(j*64, &p)
		}
		b.StartTimer()
		u.Drain()
		if _, err := u.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}
