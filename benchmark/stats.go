package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending sample; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rankOf(len(asc), p)]
}

// rankOf is the 0-based nearest-rank index of the p-th percentile
// among n ascending samples.
func rankOf(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// The tail is the 99th percentile, reported only where at least
// minBeyond samples lie beyond it, so it is never one or two
// outliers; tailChunk samples leave eleven beyond.  Intermediate percentiles (p75, p90 of a few dozen runs) were
// tried and dropped: they moved by up to a fifth between identical
// runs, and a sample count near a rung's threshold made the metric
// flip between rungs.
const (
	tailRank  = 99.0
	minBeyond = 10
	tailChunk = 1100
)

// tailOf returns a pass's tail latency: the samples, in the order
// they were taken, are cut into consecutive chunks of tailChunk, and
// the median of the chunks' 99th percentiles is reported — one bad
// second (a collection, a noisy neighbour) moves one chunk, not the
// result.  A pass with fewer than tailChunk samples has no tail worth
// the name and reports its median.
func tailOf(us []float64) float64 {
	if len(us) < tailChunk {
		return median(us)
	}
	var p99s []float64
	for lo := 0; lo+tailChunk <= len(us); lo += tailChunk {
		p99s = append(p99s, percentile(sorted(us[lo:lo+tailChunk]), tailRank))
	}
	return median(p99s)
}
