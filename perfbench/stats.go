package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail estimate resting on fewer is noise.
const minBeyond = 10

// summary is a latency sample set reduced to its median and p90. The p90
// is reported only when at least minBeyond samples lie beyond it.
type summary struct {
	N     int
	P50   float64
	P90   float64
	P90OK bool
}

// percentile returns the nearest-rank q-quantile of xs (which it sorts) and
// whether at least minBeyond samples lie strictly beyond that rank.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1], len(xs)-rank >= minBeyond
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), NaN for an empty set. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// summarize reduces xs to its median and p90; xs is sorted in place.
func summarize(xs []float64) summary {
	s := summary{N: len(xs), P50: median(xs)}
	s.P90, s.P90OK = percentile(xs, 0.9)
	return s
}
