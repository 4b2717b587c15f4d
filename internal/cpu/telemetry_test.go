package cpu_test

import (
	"fmt"
	"strings"
	"testing"

	"dolos/internal/cliutil"
	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/telemetry"
	"dolos/internal/whisper"
)

// probeMachine builds a machine of the given core count, each core
// running its own Hashmap instance as dolos-sim would lay them out.
func probeMachine(t *testing.T, scheme controller.Scheme, cores int) *cpu.Machine {
	t.Helper()
	w, err := whisper.ByName("Hashmap")
	if err != nil {
		t.Fatal(err)
	}
	cfg := controller.Config{Scheme: scheme, HardwareWPQ: 16}
	cfg.AESKey, cfg.MACKey = cliutil.DemoKeys("probe")
	specs := make([]cpu.CoreSpec, cores)
	for i := range specs {
		seed := cpu.CoreSeed(1, i)
		specs[i] = cpu.CoreSpec{Workload: w.Name(), Seed: seed, Trace: w.Generate(whisper.Params{
			Transactions: 30, TxSize: 512, Seed: seed, HeapBase: cpu.CoreHeapBase(i),
		})}
	}
	return cpu.NewMachine(cpu.MachineConfig{Ctrl: cfg}, specs)
}

// runRecord runs m and returns its RunRecord without probe metrics, so
// an instrumented and a plain run compare on every simulated field and
// every controller statistic.
func runRecord(m *cpu.Machine) telemetry.RunRecord {
	res := m.Run()
	return cliutil.BuildRunRecord(res, m.Ctrl.Config().EffectiveTree(), 512, 1,
		m.Eng.Processed(), 0, m.Ctrl.Stats(), nil)
}

// TestProbeDoesNotPerturbTiming is the telemetry subsystem's core
// contract: an instrumented run's record — cycles, per-core results and
// every controller statistic, the multi-core WPQ occupancy histogram
// included — must be identical to an uninstrumented one at every core
// count, because probes only observe.
func TestProbeDoesNotPerturbTiming(t *testing.T) {
	for _, scheme := range []controller.Scheme{
		controller.NonSecureADR,
		controller.PreWPQSecure,
		controller.DolosFull,
		controller.DolosPartial,
		controller.DolosPost,
		controller.EADRSecure,
	} {
		for _, cores := range []int{1, 2, 4} {
			base := runRecord(probeMachine(t, scheme, cores))

			instr := probeMachine(t, scheme, cores)
			p := telemetry.NewProbe(instr.Eng.Now)
			instr.SetProbe(p)
			got := runRecord(instr)

			if d := cliutil.CompareBenchRecords([]telemetry.RunRecord{got}, []telemetry.RunRecord{base}); !d.Identical() {
				t.Fatalf("%v, %d cores: instrumented record differs from plain:\n%s",
					scheme, cores, strings.Join(d.Diffs, "\n"))
			}
			if p.Len() == 0 {
				t.Fatalf("%v, %d cores: probe recorded no events", scheme, cores)
			}
			if n := len(p.TrackNames()); n < 4 {
				t.Fatalf("%v, %d cores: only %d tracks registered: %v", scheme, cores, n, p.TrackNames())
			}
		}
	}
}

// TestProbeRecordsExpectedTracks checks the component wiring: a Dolos
// run must populate one CPU track per core ("cpu", "cpu1", ...) and the
// WPQ, Mi-SU, Ma-SU and NVM-bank tracks, record fence-stall and
// security spans, and accumulate registry metrics.
func TestProbeRecordsExpectedTracks(t *testing.T) {
	for _, cores := range []int{1, 2} {
		m := probeMachine(t, controller.DolosPartial, cores)
		p := telemetry.NewProbe(m.Eng.Now)
		m.SetProbe(p)
		m.Run()

		tracks := make(map[string]bool)
		for _, n := range p.TrackNames() {
			tracks[n] = true
		}
		want := []string{"cpu", "wpq", "mi-su", "ma-su", "nvm-bank-0"}
		for i := 1; i < cores; i++ {
			want = append(want, fmt.Sprintf("cpu%d", i))
		}
		for _, w := range want {
			if !tracks[w] {
				t.Fatalf("%d cores: track %q missing: %v", cores, w, p.TrackNames())
			}
		}
		spans := make(map[string]bool)
		for _, n := range p.SpanNames() {
			spans[n] = true
		}
		for _, w := range []string{"fence-stall", "tx", "mac", "secure-write", "write"} {
			if !spans[w] {
				t.Fatalf("%d cores: span %q missing: %v", cores, w, p.SpanNames())
			}
		}

		reg := p.Registry()
		if reg.Counter("sim.events_dispatched").Value() == 0 {
			t.Fatalf("%d cores: no events dispatched counted", cores)
		}
		if reg.Counter("misu.protects").Value() == 0 {
			t.Fatalf("%d cores: no Mi-SU protects counted", cores)
		}
		if reg.CycleHist("ctrl.accept_latency_cycles").Stats().Count == 0 {
			t.Fatalf("%d cores: no accept latencies observed", cores)
		}
		if reg.CycleHist("ctrl.drain_latency_cycles").Stats().Count == 0 {
			t.Fatalf("%d cores: no drain latencies observed", cores)
		}
	}
}

// TestDetachProbe verifies SetProbe(nil) fully unhooks instrumentation
// and leaves the machine's own observers in place: a detached 2-core
// run's record matches a never-instrumented one.
func TestDetachProbe(t *testing.T) {
	m := probeMachine(t, controller.DolosPartial, 2)
	p := telemetry.NewProbe(m.Eng.Now)
	m.SetProbe(p)
	m.SetProbe(nil)
	got := runRecord(m)
	if p.Len() != 0 {
		t.Fatalf("detached probe still recorded %d events", p.Len())
	}
	if m.Probe() != nil {
		t.Fatal("probe still attached")
	}
	base := runRecord(probeMachine(t, controller.DolosPartial, 2))
	if d := cliutil.CompareBenchRecords([]telemetry.RunRecord{got}, []telemetry.RunRecord{base}); !d.Identical() {
		t.Fatalf("detached record differs from plain:\n%s", strings.Join(d.Diffs, "\n"))
	}
}
