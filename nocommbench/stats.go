package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the least number of samples that must lie beyond a
// reported percentile: a tail figure resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// samples, refusing when fewer than minBeyond samples lie beyond it.
// The slice is sorted in place.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median returns the middle value of the samples (mean of the two
// middle ones for an even count), sorting them in place. It returns NaN
// for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
