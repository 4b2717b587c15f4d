// Package mcore holds the names the repository benchmark still uses for
// the multi-core machine, which now lives in internal/cpu (cpu.Machine,
// one machine for every core count). It stays until a change to the
// benchmark module moves benchmark/workloads.go to cpu; every other
// caller uses cpu directly.
package mcore

import "dolos/internal/cpu"

// Per-core seed and heap strides (see cpu.CoreSeed and cpu.CoreHeapBase).
const (
	CoreSeedStride = cpu.CoreSeedStride
	CoreHeapStride = cpu.CoreHeapStride
)

// The machine's types under their former names.
type (
	System   = cpu.Machine
	Core     = cpu.Core
	CoreSpec = cpu.CoreSpec
	Config   = cpu.MachineConfig
)

// CoreSeed is cpu.CoreSeed.
func CoreSeed(seed int64, core int) int64 { return cpu.CoreSeed(seed, core) }

// CoreHeapBase is cpu.CoreHeapBase.
func CoreHeapBase(core int) uint64 { return cpu.CoreHeapBase(core) }

// NewSystem is cpu.NewMachine.
func NewSystem(cfg Config, cores []CoreSpec) *System { return cpu.NewMachine(cfg, cores) }
