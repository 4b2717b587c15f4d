package dolos

import (
	"dolos/internal/attack"
	"dolos/internal/controller"
	"dolos/internal/cpu"
	"dolos/internal/crash"
	"dolos/internal/layout"
	"dolos/internal/nvm"
	"dolos/internal/sim"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

// Lower-level facade: full machine construction, workload generation,
// crash orchestration and the adversary, for users who need more than
// the Runner's experiment API.

// SystemConfig parameterizes a secure memory controller (scheme, tree,
// WPQ size, metadata caches, keys).
type SystemConfig = controller.Config

// System is a complete simulated machine: engine, caches, controller,
// NVM device.
type System = cpu.System

// Trace is a recorded workload operation stream.
type Trace = trace.Trace

// WorkloadParams configures a workload generation run.
type WorkloadParams = whisper.Params

// AddressMap is the NVM physical address map.
type AddressMap = layout.Map

// Cycle is simulated time in 4 GHz CPU cycles.
type Cycle = sim.Cycle

// RecoveryMode selects Anubis (shadow replay) or Osiris (ECC probing)
// metadata recovery.
type RecoveryMode = controller.RecoveryMode

// Recovery modes.
const (
	// AnubisRecovery replays the shadow-tracker region (fast path).
	AnubisRecovery = controller.AnubisRecovery
	// OsirisRecovery probes counters against stored ECC (slow path).
	OsirisRecovery = controller.OsirisRecovery
)

// CrashDriver runs power-failure experiments with durability auditing.
type CrashDriver = crash.Driver

// CrashOutcome reports a crash-recovery experiment.
type CrashOutcome = crash.Outcome

// Adversary tampers with the NVM image per the paper's threat model.
type Adversary = attack.Adversary

// NewSystem builds a complete simulated machine for the configuration.
// A configuration the model does not define is refused with an error
// wrapping ErrInvalidConfig.
func NewSystem(cfg SystemConfig) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cpu.NewSystem(cfg), nil
}

// NewCrashDriver builds a machine with crash-audit instrumentation.
// It refuses a config NewSystem refuses (ErrInvalidConfig), and FastMode
// configs with a typed error (masu.ErrFastMode): crash experiments need
// real crypto.
func NewCrashDriver(cfg SystemConfig) (*CrashDriver, error) { return crash.NewDriver(cfg) }

// NewAdversary binds an adversary to a device (reproducible via seed).
func NewAdversary(dev *nvm.Device, seed int64) *Adversary { return attack.New(dev, seed) }

// GenerateTrace runs the named workload and returns its memory trace.
// Parameters the workload cannot be generated with — a payload outside
// 64 to 4096 bytes, or a run that could exhaust its persistent heap —
// are refused with an error before any generation starts.
func GenerateTrace(workload string, p WorkloadParams) (*Trace, error) {
	w, err := whisper.ByName(workload)
	if err != nil {
		return nil, err
	}
	if err := whisper.Check(w, p); err != nil {
		return nil, err
	}
	return w.Generate(p), nil
}

// LoadTrace reads a trace saved with Trace.SaveFile.
func LoadTrace(path string) (*Trace, error) { return trace.LoadFile(path) }

// SmallAddressMap returns the compact test address map (64 MB of data);
// DefaultAddressMap returns the paper's 16 GB configuration.
func SmallAddressMap() AddressMap { return layout.Small() }

// DefaultAddressMap returns the Table 1 address map.
func DefaultAddressMap() AddressMap { return layout.Default() }
