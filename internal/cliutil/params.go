package cliutil

import "fmt"

// Bounds of a run's numeric parameters, shared by the /v2 request
// normalizer and the dolos-sim flags so both accept the same runs.
const (
	// MaxTransactions is the default cap on measured transactions (a
	// service may set its own).
	MaxTransactions = 20000
	// MinTxSize and MaxTxSize bound the transaction payload in bytes.
	MinTxSize, MaxTxSize = 64, 4096
	// MinWPQ and MaxWPQ bound the hardware WPQ entries.
	MinWPQ, MaxWPQ = 1, 1024
)

// CheckRange reports v outside [lo, hi] as an error naming the
// parameter.
func CheckRange(name string, v, lo, hi int) error {
	if v < lo || v > hi {
		return fmt.Errorf("%s %d out of range [%d, %d]", name, v, lo, hi)
	}
	return nil
}
