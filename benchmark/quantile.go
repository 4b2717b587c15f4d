package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile returns the nearest-rank q-quantile of xs, lowered where
// needed so that at least minBeyond samples lie above it, but never
// below the median: with 100 samples the p90 has exactly 10 beyond it,
// with 50 samples the p80 is reported instead.
func tailQuantile(xs []float64, q float64, minBeyond int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1 // nearest rank; the epsilon absorbs float error
	k = min(k, n-1-minBeyond)
	k = max(k, (n-1)/2, 0)
	return s[k]
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
