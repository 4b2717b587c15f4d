package controller

import (
	"fmt"

	"dolos/internal/masu"
	"dolos/internal/sim"
	"dolos/internal/telemetry"
	"dolos/internal/wpq"
)

// SetProbe attaches (or with nil detaches) a telemetry probe to the
// controller and every component it owns: busy spans for the Mi-SU
// engine, the Ma-SU pipeline and the baseline security unit, per-bank
// NVM service spans, WPQ occupancy samples and event markers, and
// critical-path latency histograms in the probe's registry.
//
// The wiring is purely observational: hooks never schedule events or
// change a latency, so an instrumented run's cycle counts are
// bit-identical to an uninstrumented one. The probe's WPQ observer calls
// through to the one installed before it, and detaching restores that
// one, so a probe never erases a non-probe statistic. Call before the
// first request; with a nil probe every site reduces to one nil check.
func (c *Controller) SetProbe(p *telemetry.Probe) {
	if c.probe != nil {
		c.queue().SetObserver(c.wpqInner)
		c.wpqInner = nil
	}
	c.probe = p
	if p == nil {
		c.miSU.SetJobHook(nil)
		c.maSU.SetJobHook(nil)
		c.secUnit.SetJobHook(nil)
		c.dev.SetAccessHook(nil)
		c.ma.SetWriteHook(nil)
		if c.mi != nil {
			c.mi.SetProtectHook(nil)
		}
		c.hAccept, c.hDrain = nil, nil
		return
	}

	c.tWPQ = p.Track("wpq")
	reg := p.Registry()
	c.hAccept = reg.CycleHist("ctrl.accept_latency_cycles")
	c.hDrain = reg.CycleHist("ctrl.drain_latency_cycles")

	// Security-engine busy spans (per-scheme critical-path breakdown:
	// what occupies the path before the WPQ vs. behind it).
	if c.cfg.Scheme.IsDolos() {
		c.tMiSU = p.Track("mi-su")
		c.tMaSU = p.Track("ma-su")
		c.miSU.SetJobHook(func(_ string, start, end sim.Cycle) {
			p.Span(c.tMiSU, "mac", start, end)
		})
		c.maSU.SetJobHook(func(_ string, start, end sim.Cycle) {
			p.Span(c.tMaSU, "secure-write", start, end)
		})
	} else {
		c.tMaSU = p.Track("security-unit")
		c.secUnit.SetJobHook(func(_ string, start, end sim.Cycle) {
			p.Span(c.tMaSU, "secure-write", start, end)
		})
	}

	// WPQ occupancy, sampled exactly at its change points, plus event
	// markers for coalesces and Ma-SU fetches.
	gOcc := reg.Gauge("wpq.occupancy")
	cCoalesce := reg.Counter("wpq.coalesces")
	inner := c.queue().SetObserver(nil)
	c.wpqInner = inner
	c.queue().SetObserver(func(ev wpq.ObsEvent, addr uint64, live int) {
		if inner != nil {
			inner(ev, addr, live)
		}
		gOcc.Set(float64(live))
		p.Counter(c.tWPQ, "occupancy", float64(live))
		switch ev {
		case wpq.EvCoalesce:
			cCoalesce.Inc()
			p.Instant(c.tWPQ, "coalesce")
		case wpq.EvFetch:
			p.Instant(c.tWPQ, "fetch")
		}
	})

	// NVM service spans, one track per bank (a purely functional device
	// has no banks and no timed accesses to observe).
	if banks := c.dev.BankCount(); banks > 0 {
		nvmTracks := make([]telemetry.TrackID, banks)
		for i := range nvmTracks {
			nvmTracks[i] = p.Track(fmt.Sprintf("nvm-bank-%d", i))
		}
		c.dev.SetAccessHook(func(write bool, addr uint64, start, end sim.Cycle) {
			name := "read"
			if write {
				name = "write"
			}
			p.Span(nvmTracks[c.dev.BankIndex(addr)], name, start, end)
		})
	}

	// Ma-SU write-cost composition: mark the expensive outliers (page
	// re-encryption storms after a minor-counter overflow).
	cReenc := reg.Counter("masu.reencrypt_events")
	c.ma.SetWriteHook(func(addr uint64, cost masu.Cost) {
		if cost.ReencryptedLines > 0 {
			cReenc.Inc()
			p.Instant(c.tMaSU, "page-reencrypt")
		}
	})

	// Mi-SU insertion count (Dolos schemes).
	if c.mi != nil {
		cProtect := reg.Counter("misu.protects")
		c.mi.SetProtectHook(func(slot int, addr uint64) {
			cProtect.Inc()
		})
	}
}

// Probe returns the attached telemetry probe (nil when disabled).
func (c *Controller) Probe() *telemetry.Probe { return c.probe }
