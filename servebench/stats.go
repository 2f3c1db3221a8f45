package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a p90
// over fewer than 100 samples rests on fewer than ten observations and is
// not reported as supported.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, and
// whether at least minTail samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minTail
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
