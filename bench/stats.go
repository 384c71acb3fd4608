package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending-sorted sample, or 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supportedPercentile is the highest of the usual tail percentiles that
// still has at least ten samples beyond it in a sample of n, or 0 when
// not even the median does. A tail read off fewer samples than that is
// one outlier's position, not a property of the system.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, c := range []struct {
		p     float64
		oneIn int // the share of samples beyond p is 1/oneIn
	}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}} {
		if n/c.oneIn >= 10 {
			best = c.p
		}
	}
	return best
}

// tailPercentile reads the p-th percentile, stepping down to the highest
// supported one when the sample is too small to carry p.
func tailPercentile(sorted []int64, p float64) int64 {
	if s := supportedPercentile(len(sorted)); s > 0 && s < p {
		p = s
	}
	return percentile(sorted, p)
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how
// the driver computes a metric's spread. It needs two values or more.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// minAndCV summarises repeated timings of one series: the minimum (the
// run least disturbed by the box) and the coefficient of variation
// (standard deviation over mean) that says how much to trust it.
func minAndCV(xs []float64) (min, cv float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min = xs[0]
	var sum float64
	for _, x := range xs {
		if x < min {
			min = x
		}
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return min, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return min, math.Sqrt(ss/float64(len(xs))) / mean
}
