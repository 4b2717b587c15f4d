package controller

import (
	"errors"
	"testing"

	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/sim"
)

func newCustomSystem(cfg Config) (*sim.Engine, *Controller) {
	eng := sim.NewEngine()
	if cfg.Layout == (layout.Map{}) {
		cfg.Layout = layout.Small()
	}
	dev := nvm.NewDevice(eng, cfg.Layout.DeviceSize, 0)
	copy(cfg.AESKey[:], "edge-aes-key-016")
	copy(cfg.MACKey[:], "edge-mac-key-016")
	return eng, New(eng, dev, cfg)
}

func TestTinyWPQStillCorrect(t *testing.T) {
	// A 2-entry hardware WPQ (Partial usable = 1) must still accept and
	// drain everything, just slowly.
	eng, c := newCustomSystem(Config{Scheme: DolosPartial, HardwareWPQ: 2})
	accepted := 0
	for i := uint64(0); i < 12; i++ {
		c.PersistWrite(0x1000+i*64, lineRef(byte(i)), func() { accepted++ })
	}
	eng.Run(0)
	if accepted != 12 {
		t.Fatalf("accepted %d of 12 with tiny WPQ", accepted)
	}
	if c.RetryEvents() == 0 {
		t.Fatal("tiny WPQ produced no retries under a burst")
	}
	for i := uint64(0); i < 12; i++ {
		got, _, err := c.MaSU().ReadLine(0x1000 + i*64)
		if err != nil || got != line(byte(i)) {
			t.Fatalf("line %d wrong after tiny-WPQ drain: %v", i, err)
		}
	}
}

func TestLargeWPQNoRetries(t *testing.T) {
	eng, c := newCustomSystem(Config{Scheme: DolosPartial, HardwareWPQ: 128})
	for i := uint64(0); i < 40; i++ {
		c.PersistWrite(0x1000+i*64, lineRef(byte(i)), nil)
	}
	eng.Run(0)
	if c.RetryEvents() != 0 {
		t.Fatalf("113-entry WPQ retried %d times on a 40-write burst", c.RetryEvents())
	}
}

func TestMaSUIntervalSlowsDrain(t *testing.T) {
	fast := drainTime(t, 0)    // default II = 160
	slow := drainTime(t, 1600) // serial backend
	if slow <= fast {
		t.Fatalf("slow backend (%d) not slower than fast (%d)", slow, fast)
	}
}

func drainTime(t *testing.T, ii sim.Cycle) sim.Cycle {
	t.Helper()
	eng, c := newCustomSystem(Config{Scheme: DolosPartial, MaSUInterval: ii})
	for i := uint64(0); i < 10; i++ {
		c.PersistWrite(0x1000+i*64, lineRef(byte(i)), nil)
	}
	eng.Run(0)
	return eng.Now()
}

func TestSmallCounterCacheMoreMisses(t *testing.T) {
	missesAt := func(bytes uint64) uint64 {
		eng, c := newCustomSystem(Config{Scheme: DolosPartial, CounterCacheBytes: bytes})
		// Two passes over many distinct pages: the second pass hits in a
		// large counter cache and thrashes in a small one.
		for pass := 0; pass < 2; pass++ {
			for i := uint64(0); i < 200; i++ {
				c.PersistWrite(0x1000+i*4096, lineRef(byte(i)), nil)
			}
			eng.Run(0)
		}
		return c.Stats().Counter("masu.counter_misses").Value()
	}
	small := missesAt(4 << 10)
	big := missesAt(512 << 10)
	if small <= big {
		t.Fatalf("4KB counter cache misses (%d) not above 512KB (%d)", small, big)
	}
}

func TestToCCrashRecoverThroughController(t *testing.T) {
	eng, c := newCustomSystem(Config{Scheme: DolosFull, Tree: masu.ToCLazy})
	want := map[uint64][64]byte{}
	for i := uint64(0); i < 10; i++ {
		addr := 0x2000 + i*64
		p := line(byte(40 + i))
		c.PersistWrite(addr, &p, func() { want[addr] = p })
	}
	eng.RunUntil(3000)
	if _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(AnubisRecovery); err != nil {
		t.Fatalf("ToC recovery: %v", err)
	}
	for addr, p := range want {
		got, _, err := c.MaSU().ReadLine(addr)
		if err != nil || got != p {
			t.Fatalf("ToC line %#x lost: %v", addr, err)
		}
	}
}

func TestOsirisRejectedUnderToC(t *testing.T) {
	eng, c := newCustomSystem(Config{Scheme: DolosPartial, Tree: masu.ToCLazy})
	c.PersistWrite(0x1000, lineRef(1), nil)
	eng.Run(0)
	if _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(OsirisRecovery); !errors.Is(err, masu.ErrNeedsBMT) {
		t.Fatalf("Osiris recovery under the ToC backend: %v, want masu.ErrNeedsBMT", err)
	}
}

func TestWritesAfterCrashIgnored(t *testing.T) {
	eng, c := newCustomSystem(Config{Scheme: DolosPartial})
	c.PersistWrite(0x1000, lineRef(1), nil)
	eng.Run(0)
	if _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	before := c.WriteRequests()
	accepted := false
	c.PersistWrite(0x2000, lineRef(2), func() { accepted = true })
	eng.Run(0)
	if accepted {
		t.Fatal("write accepted while powered off")
	}
	_ = before
}

func TestPipelinedBaselineThroughput(t *testing.T) {
	// A burst of baseline writes pipelines through the security unit:
	// the last acceptance should land near full-latency + N*II, far
	// below N * full-latency (serial service).
	eng, c := newCustomSystem(Config{Scheme: PreWPQSecure})
	const n = 8
	var last sim.Cycle
	for i := uint64(0); i < n; i++ {
		c.PersistWrite(0x1000+i*64, lineRef(byte(i)), func() {
			if eng.Now() > last {
				last = eng.Now()
			}
		})
	}
	eng.Run(0)
	fullLatency := crypt.AESLatency + 10*crypt.MACLatency
	// Allow the first write's cold counter + tree-path fetches (~6 NVM
	// reads) on top of the pipelined drain of the rest of the burst.
	pipelined := fullLatency + (n+2)*crypt.MACLatency + 7*600
	if last > pipelined {
		t.Fatalf("burst acceptance at %d exceeds pipelined bound %d", last, pipelined)
	}
	if last < fullLatency {
		t.Fatalf("burst accepted at %d, before one full security latency %d", last, fullLatency)
	}
}

func TestReadExtraLatencyComposition(t *testing.T) {
	eng, c := newCustomSystem(Config{Scheme: DolosPartial})
	c.PersistWrite(0x1000, lineRef(1), nil)
	eng.Run(0)
	// First read: counter is cached from the write -> only the data MAC
	// verification beyond the NVM fetch.
	start := eng.Now()
	var lat sim.Cycle
	c.ReadLine(0x1000, func(uint64) { lat = eng.Now() - start }, 0)
	eng.Run(0)
	min := nvm.ReadLatency + crypt.MACLatency
	if lat < min || lat > min+700 {
		t.Fatalf("verified read latency = %d, want >= %d", lat, min)
	}
}

// TestWaitersBounded drives the retry queue with a backlog that never
// drains, parking at the back and (every seventh write, as a full-WPQ
// retry does) at the front, and pins both its FIFO order against a
// plain slice and its backing array to a small multiple of its peak.
func TestWaitersBounded(t *testing.T) {
	c := &Controller{}
	var ref []uint64
	peak := 0
	for i := uint64(0); i < 100000; i++ {
		front := i%7 == 0
		c.park(&waiter{addr: i}, front, false)
		if front {
			ref = append([]uint64{i}, ref...)
		} else {
			ref = append(ref, i)
		}
		peak = max(peak, len(c.waiters)-c.waitHead)
		if len(ref) > 4 {
			w, ok := c.popWaiter()
			if !ok || w.addr != ref[0] {
				t.Fatalf("write %d: popped %d (ok %v), want %d", i, w.addr, ok, ref[0])
			}
			ref = ref[1:]
		}
	}
	if c := cap(c.waiters); c > 5*peak+8 {
		t.Fatalf("retry queue holds %d slots for a peak of %d parked writes", c, peak)
	}
}
