package controller

import (
	"testing"

	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/misu"
	"dolos/internal/nvm"
	"dolos/internal/sim"
)

func newSystem(scheme Scheme, tree masu.TreeKind) (*sim.Engine, *Controller) {
	eng := sim.NewEngine()
	lay := layout.Small()
	dev := nvm.NewDevice(eng, lay.DeviceSize, 0)
	cfg := Config{Scheme: scheme, Tree: tree, Layout: lay}
	copy(cfg.AESKey[:], "ctrl-aes-key-016")
	copy(cfg.MACKey[:], "ctrl-mac-key-016")
	return eng, New(eng, dev, cfg)
}

func line(seed byte) [64]byte {
	var l [64]byte
	for i := range l {
		l[i] = seed ^ byte(i*13)
	}
	return l
}

// lineRef returns line(seed) by reference, as PersistWrite takes it.
func lineRef(seed byte) *[64]byte {
	l := line(seed)
	return &l
}

func allSchemes() []Scheme {
	return []Scheme{NonSecureADR, PreWPQSecure, DolosFull, DolosPartial, DolosPost}
}

func TestSchemeNamesAndSizes(t *testing.T) {
	for _, s := range allSchemes() {
		if s.String() == "" {
			t.Fatalf("empty name for %d", s)
		}
	}
	for _, tc := range []struct {
		s    Scheme
		want int
	}{{NonSecureADR, 16}, {PreWPQSecure, 16}, {DolosFull, 16}, {DolosPartial, 14}, {DolosPost, 11}} {
		cfg := Config{Scheme: tc.s}
		if got := cfg.UsableWPQ(); got != tc.want {
			t.Fatalf("%v usable WPQ = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestPersistWriteAccepted(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			eng, c := newSystem(s, masu.BMTEager)
			var acceptedAt sim.Cycle
			c.PersistWrite(0x1000, lineRef(1), func() { acceptedAt = eng.Now() })
			eng.Run(0)
			if acceptedAt == 0 {
				t.Fatal("write never accepted")
			}
			if c.WriteRequests() != 1 {
				t.Fatalf("write requests = %d", c.WriteRequests())
			}
		})
	}
}

func TestInsertLatencyOrdering(t *testing.T) {
	// The paper's core claim at the single-write level: acceptance
	// latency ideal < Post < Partial < Full << baseline.
	lat := map[Scheme]sim.Cycle{}
	for _, s := range allSchemes() {
		eng, c := newSystem(s, masu.BMTEager)
		var acceptedAt sim.Cycle
		c.PersistWrite(0x1000, lineRef(1), func() { acceptedAt = eng.Now() })
		eng.Run(0)
		lat[s] = acceptedAt
	}
	if !(lat[NonSecureADR] <= lat[DolosPost] &&
		lat[DolosPost] < lat[DolosPartial] &&
		lat[DolosPartial] < lat[DolosFull] &&
		lat[DolosFull] < lat[PreWPQSecure]) {
		t.Fatalf("acceptance latencies out of order: %v", lat)
	}
	// Baseline pays at least the 10 MACs + AES.
	if lat[PreWPQSecure] < 10*crypt.MACLatency {
		t.Fatalf("baseline accepted too fast: %d", lat[PreWPQSecure])
	}
}

func TestDolosDrainsInBackground(t *testing.T) {
	eng, c := newSystem(DolosPartial, masu.BMTEager)
	for i := uint64(0); i < 5; i++ {
		c.PersistWrite(0x1000+i*64, lineRef(byte(i)), nil)
	}
	eng.Run(0)
	if got := c.Stats().Counter("masu.drained").Value(); got != 5 {
		t.Fatalf("drained %d entries, want 5", got)
	}
	if c.WPQLive() != 0 {
		t.Fatalf("WPQ live = %d after quiesce", c.WPQLive())
	}
	if c.MaSU().Writes() != 5 {
		t.Fatalf("MaSU processed %d writes", c.MaSU().Writes())
	}
}

func TestRetryEventsWhenFull(t *testing.T) {
	eng, c := newSystem(DolosPartial, masu.BMTEager)
	// Burst far more writes than WPQ entries at cycle 0.
	n := uint64(40)
	accepted := 0
	for i := uint64(0); i < n; i++ {
		c.PersistWrite(0x1000+i*64, lineRef(byte(i)), func() { accepted++ })
	}
	eng.Run(0)
	if accepted != int(n) {
		t.Fatalf("accepted %d of %d writes", accepted, n)
	}
	if c.RetryEvents() == 0 {
		t.Fatal("burst produced no retry events")
	}
	if c.RetryPerKWR() <= 0 {
		t.Fatal("retry/KWR not computed")
	}
}

func TestIdealNoRetryUnderLightLoad(t *testing.T) {
	eng, c := newSystem(NonSecureADR, masu.BMTEager)
	for i := uint64(0); i < 8; i++ {
		i := i
		eng.At(sim.Cycle(i*5000), func() {
			c.PersistWrite(0x1000+i*64, lineRef(byte(i)), nil)
		})
	}
	eng.Run(0)
	if c.RetryEvents() != 0 {
		t.Fatalf("ideal scheme retried %d times under light load", c.RetryEvents())
	}
}

func TestReadAfterDrain(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			eng, c := newSystem(s, masu.BMTEager)
			c.PersistWrite(0x1000, lineRef(7), nil)
			eng.Run(0)
			var readDone bool
			c.ReadLine(0x1000, func(uint64) { readDone = true }, 0)
			eng.Run(0)
			if !readDone {
				t.Fatal("read never completed")
			}
		})
	}
}

func TestReadHitsWPQ(t *testing.T) {
	eng, c := newSystem(DolosPartial, masu.BMTEager)
	// Saturate the Ma-SU so entries linger in the WPQ, then read one.
	for i := uint64(0); i < 10; i++ {
		c.PersistWrite(0x1000+i*64, lineRef(byte(i)), nil)
	}
	var hitLatency sim.Cycle
	eng.RunUntil(300) // first insert done at 161; its drain takes ~1700
	if c.WPQLive() == 0 {
		t.Skip("WPQ already drained; timing too fast to observe")
	}
	start := eng.Now()
	c.ReadLine(0x1000, func(uint64) { hitLatency = eng.Now() - start }, 0)
	eng.Run(0)
	if got := c.Stats().Counter("wpq.read_hits").Value(); got != 1 {
		t.Fatalf("WPQ read hits = %d", got)
	}
	if hitLatency > 20 {
		t.Fatalf("WPQ hit took %d cycles, should be on-chip fast", hitLatency)
	}
}

func TestCrashRecoverPreservesWrites(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			eng, c := newSystem(s, masu.BMTEager)
			want := map[uint64][64]byte{}
			for i := uint64(0); i < 12; i++ {
				addr := 0x1000 + i*64
				p := line(byte(i))
				c.PersistWrite(addr, &p, func() { want[addr] = p })
			}
			// Crash mid-flight: run only a little so some entries are
			// still in the WPQ for Dolos schemes. Only writes accepted
			// into the persistence domain by then are guaranteed to
			// survive — exactly the paper's contract.
			eng.RunUntil(2000)
			if _, err := c.Crash(); err != nil {
				t.Fatalf("crash: %v", err)
			}
			rep, err := c.Recover(AnubisRecovery)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			_ = rep
			// All accepted writes must be readable with correct data.
			for addr, p := range want {
				got, _, err := c.MaSU().ReadLine(addr)
				if err != nil {
					t.Fatalf("post-recovery read %#x: %v", addr, err)
				}
				if got != p {
					t.Fatalf("post-recovery data mismatch at %#x", addr)
				}
			}
		})
	}
}

func TestCrashDrainWithinADRBudget(t *testing.T) {
	for _, s := range []Scheme{DolosFull, DolosPartial, DolosPost} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			eng, c := newSystem(s, masu.BMTEager)
			for i := uint64(0); i < 20; i++ {
				c.PersistWrite(0x1000+i*64, lineRef(byte(i)), nil)
			}
			eng.RunUntil(500) // crash with the queue as full as it gets
			rep, err := c.Crash()
			if err != nil {
				t.Fatalf("ADR budget violated: %v", err)
			}
			budget := StandardADR(c.Config().HardwareWPQ)
			if rep.BytesFlushed > budget.FlushBytes {
				t.Fatalf("flushed %d bytes > budget %d", rep.BytesFlushed, budget.FlushBytes)
			}
		})
	}
}

func TestOsirisRecoveryPath(t *testing.T) {
	eng, c := newSystem(DolosPartial, masu.BMTEager)
	for i := uint64(0); i < 6; i++ {
		c.PersistWrite(0x2000+i*64, lineRef(byte(40+i)), nil)
	}
	eng.Run(0)
	if _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Recover(OsirisRecovery)
	if err != nil {
		t.Fatalf("Osiris recovery: %v", err)
	}
	if rep.MaSU.OsirisProbes == 0 {
		t.Fatal("Osiris path ran no probes")
	}
}

func TestPostWPQDeferredSerializes(t *testing.T) {
	eng, c := newSystem(DolosPost, masu.BMTEager)
	var at1, at2 sim.Cycle
	c.PersistWrite(0x1000, lineRef(1), func() { at1 = eng.Now() })
	c.PersistWrite(0x1040, lineRef(2), func() { at2 = eng.Now() })
	eng.Run(0)
	// The second write cannot be accepted until the first's deferred MAC
	// completes (one outstanding deferred op).
	if at2 < at1+crypt.MACLatency {
		t.Fatalf("second Post-WPQ write accepted at %d, first at %d: deferred op not serialized", at2, at1)
	}
}

func TestCoalescingReducesOccupancy(t *testing.T) {
	eng, c := newSystem(DolosPartial, masu.BMTEager)
	for i := 0; i < 6; i++ {
		c.PersistWrite(0x1000, lineRef(byte(i)), nil) // same line repeatedly
	}
	eng.Run(0)
	if got := c.queue().Coalesces(); got == 0 {
		t.Fatal("no coalescing on repeated same-line writes")
	}
}

func TestDisableCoalescing(t *testing.T) {
	eng := sim.NewEngine()
	lay := layout.Small()
	dev := nvm.NewDevice(eng, lay.DeviceSize, 0)
	cfg := Config{Scheme: DolosPartial, Layout: lay, DisableCoalescing: true}
	c := New(eng, dev, cfg)
	for i := 0; i < 4; i++ {
		c.PersistWrite(0x1000, lineRef(byte(i)), nil)
	}
	eng.Run(0)
	if got := c.queue().Coalesces(); got != 0 {
		t.Fatalf("coalesced %d times with coalescing disabled", got)
	}
}

func TestEvictWriteSecured(t *testing.T) {
	eng, c := newSystem(DolosPartial, masu.BMTEager)
	c.EvictWrite(0x3000, lineRef(9))
	eng.Run(0)
	if c.MaSU().Writes() != 1 {
		t.Fatal("eviction bypassed the Ma-SU")
	}
	got, _, err := c.MaSU().ReadLine(0x3000)
	if err != nil || got != line(9) {
		t.Fatalf("evicted line wrong: %v", err)
	}
}

func TestInterarrivalTracked(t *testing.T) {
	eng, c := newSystem(DolosPartial, masu.BMTEager)
	for i := uint64(0); i < 4; i++ {
		i := i
		eng.At(sim.Cycle(i*473), func() { c.PersistWrite(0x1000+i*64, lineRef(byte(i)), nil) })
	}
	eng.Run(0)
	h := c.Stats().Histogram("wpq.interarrival_cycles")
	if h.Count() != 3 || h.Mean() != 473 {
		t.Fatalf("interarrival: n=%d mean=%v", h.Count(), h.Mean())
	}
}

func TestMiSUDesignMapping(t *testing.T) {
	if DolosFull.MiSUDesign() != misu.FullWPQ ||
		DolosPartial.MiSUDesign() != misu.PartialWPQ ||
		DolosPost.MiSUDesign() != misu.PostWPQ {
		t.Fatal("scheme -> design mapping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MiSUDesign on baseline did not panic")
		}
	}()
	PreWPQSecure.MiSUDesign()
}
