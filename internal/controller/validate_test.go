package controller

import (
	"errors"
	"testing"

	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/sim"
)

// TestValidate has a row per rule of Config.Validate, each value at and
// just past its bound. A refused config's error wraps ErrInvalidConfig
// and names its field, and New panics with the same error; the rows a
// front end used to check (-wpq, /v2's wpq) are here. A cache override
// is bounded by the layout's region it caches, so no config asks for a
// cache that exhausts memory (1 TB used to pass).
func TestValidate(t *testing.T) {
	small := layout.Small()
	for _, c := range []struct {
		name  string
		cfg   Config
		field string // field named in the error, "" = accepted
	}{
		{"zero config", Config{}, ""},
		{"every registered scheme's last", Config{Scheme: STUM}, ""},
		{"scheme 99", Config{Scheme: Scheme(99)}, "Scheme"},
		{"scheme -1", Config{Scheme: Scheme(-1)}, "Scheme"},
		{"lazy ToC", Config{Scheme: DolosPartial, Tree: masu.ToCLazy}, ""},
		{"tree 7", Config{Scheme: DolosPartial, Tree: masu.TreeKind(7)}, "Tree"},
		{"tree 7 on a scheme that pins its tree", Config{Scheme: TriadNVM, Tree: masu.TreeKind(7)}, "Tree"},
		{"tree -1", Config{Scheme: PreWPQSecure, Tree: masu.TreeKind(-1)}, "Tree"},
		{"WPQ 0 is the default", Config{Scheme: DolosPartial, HardwareWPQ: 0}, ""},
		{"WPQ 1", Config{Scheme: DolosPost, HardwareWPQ: 1}, ""},
		{"WPQ 1024", Config{Scheme: DolosFull, HardwareWPQ: MaxWPQ}, ""},
		{"WPQ 1025", Config{Scheme: DolosFull, HardwareWPQ: MaxWPQ + 1}, "HardwareWPQ"},
		{"WPQ -3 Dolos-Full", Config{Scheme: DolosFull, HardwareWPQ: -3}, "HardwareWPQ"},
		{"WPQ -3 Dolos-Partial", Config{Scheme: DolosPartial, HardwareWPQ: -3}, "HardwareWPQ"},
		{"WPQ -4 Pre-WPQ-Secure", Config{Scheme: PreWPQSecure, HardwareWPQ: -4}, "HardwareWPQ"},
		{"counter cache 16 KB", Config{CounterCacheBytes: 16 << 10}, ""},
		{"counter cache 1 B", Config{CounterCacheBytes: 1}, "CounterCacheBytes"},
		{"counter cache 3 sets", Config{CounterCacheBytes: 3 * 4 * 64}, "CounterCacheBytes"},
		{"MT cache 32 KB", Config{MTCacheBytes: 32 << 10}, ""},
		{"MT cache 64 B", Config{MTCacheBytes: 64}, "MTCacheBytes"},
		{"counter cache the size of its region", Config{Layout: small, CounterCacheBytes: 16 << 20}, ""},
		{"counter cache past its region", Config{Layout: small, CounterCacheBytes: 32 << 20}, "CounterCacheBytes"},
		{"counter cache 1 TB", Config{Layout: small, CounterCacheBytes: 1 << 40}, "CounterCacheBytes"},
		{"MT cache the size of its region", Config{Layout: small, MTCacheBytes: 16 << 20}, ""},
		{"MT cache past its region", Config{Layout: small, MTCacheBytes: 32 << 20}, "MTCacheBytes"},
		{"counter cache 1 GB on the default layout", Config{CounterCacheBytes: 1 << 30}, ""},
		{"Triad levels 0", Config{Scheme: TriadNVM}, ""},
		{"Triad levels 30", Config{Scheme: TriadNVM, TriadLevels: 30}, ""},
		{"Triad levels -1", Config{Scheme: TriadNVM, TriadLevels: -1}, "TriadLevels"},
	} {
		err := c.cfg.Validate()
		var ce *ConfigError
		switch {
		case c.field == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.field != "" && (!errors.Is(err, ErrInvalidConfig) || !errors.As(err, &ce) || ce.Field != c.field):
			t.Errorf("%s: error %v, want a ConfigError for %s wrapping ErrInvalidConfig", c.name, err, c.field)
		case c.field != "":
			func() {
				defer func() {
					if p, _ := recover().(error); !errors.Is(p, ErrInvalidConfig) || p.Error() != err.Error() {
						t.Errorf("%s: New panicked with %v, want %v", c.name, p, err)
					}
				}()
				lay := layout.Small()
				c.cfg.Layout = lay
				New(sim.NewEngine(), nvm.NewDevice(nil, lay.DeviceSize, 0), c.cfg)
			}()
		}
	}
}
