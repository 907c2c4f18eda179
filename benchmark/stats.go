package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted, by
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, 50)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailPercentile picks the highest of p50, p90, p99 and p99.9 that still
// has at least ten of n samples beyond it — a percentile read off fewer
// does not repeat from run to run.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, permille := range []int{900, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = float64(permille) / 10
		}
	}
	return best
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so a spread
// computed here is the one the acceptance procedure computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(out)
	return out
}
