package main

import (
	"math/rand"
	"slices"
	"time"
)

// calibRefMS is about the median time of one calibrator pass between
// cells on the reference host (2-vCPU Intel Xeon, linux/amd64, Go 1.24,
// over forty 25 s runs). The timing end-to-end metrics are reported in
// reference-host time: each cell's host time × calibRefMS / the median
// of the calibrator passes around it. A shared host's speed drifts by
// tens of percent over seconds to minutes, and the drift slows the
// passes and the cells alike.
const calibRefMS = 5.5

// calibEvery is how many cells run between two calibrator passes, and
// calibWindow how many passes around a cell scale it.
const (
	calibEvery  = 2
	calibWindow = 5
)

// calibKeys is the calibrator's input size, a few ms of sorting.
const calibKeys = 60_000

// calibrator is a fixed reference loop owned by the benchmark and built
// on the standard library only, so no change to the simulator moves it:
// it sorts a fixed pseudo-random slice. Of the loops tried against
// repeated runs of one identical cell (a pointer chase plus SHA-256, a
// heap-driven event loop, a random gather over 64 MB, clearing 32 MB and
// this sort), the sort tracked the cells' drift best and had the least
// noise of its own.
type calibrator struct {
	keys, work []uint64
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, calibKeys)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return &calibrator{keys: keys, work: make([]uint64, calibKeys)}
}

// pass runs the loop once and returns its host time in ms.
func (c *calibrator) pass() float64 {
	t := time.Now()
	copy(c.work, c.keys)
	slices.Sort(c.work)
	return msOf(time.Since(t))
}
