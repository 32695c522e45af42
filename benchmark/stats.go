package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics guide, section 1): p90 needs at least 100 samples.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) and 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// tailPercentile returns the q-quantile of xs when at least minBeyond
// samples lie beyond it; otherwise it lowers q to the highest percentile
// that has that many beyond it (never below the median). The quantile
// actually used is returned with the value so reports can say so.
func tailPercentile(xs []float64, q float64) (value, usedQ float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if maxQ := float64(n-minBeyond) / float64(n); q > maxQ {
		q = math.Max(maxQ, 0.5)
	}
	return percentile(xs, q), q
}

// iqrShare is the distance between the first and third quartile of xs as a
// share of their median — the spread the benchmark contract bounds.
// It matches Python's statistics.quantiles(xs, n=4) (exclusive method).
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	quart := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}

// relDiff is the distance between a and b as a share of the smaller.
func relDiff(a, b float64) float64 {
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 {
		return 0
	}
	return math.Abs(a-b) / lo
}
