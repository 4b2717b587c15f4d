package cliutil

import "fmt"

// MaxTransactions is the default cap on measured transactions a request
// may ask for (a service may set its own). The model's own bounds are
// checked by the layer that owns each parameter (DESIGN.md §2).
const MaxTransactions = 20000

// CheckRange reports v outside [lo, hi] as an error naming the
// parameter.
func CheckRange(name string, v, lo, hi int) error {
	if v < lo || v > hi {
		return fmt.Errorf("%s %d out of range [%d, %d]", name, v, lo, hi)
	}
	return nil
}

// CheckNonZero reports a numeric flag given as 0. A zero model
// parameter selects the model's default, but the flag already declares
// that default, so an explicit 0 is a slip, not a request for it (-wpq 0
// would run 16 entries).
func CheckNonZero(name string, v int) error {
	if v == 0 {
		return fmt.Errorf("%s 0: omit the flag for its default", name)
	}
	return nil
}
