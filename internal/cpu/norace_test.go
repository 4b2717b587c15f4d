//go:build !race

package cpu

// raceEnabled reports that the race detector instruments this build,
// which changes what a run allocates.
const raceEnabled = false
