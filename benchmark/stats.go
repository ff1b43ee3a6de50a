package main

import (
	"math"
	"slices"
)

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// vs; 0 for an empty slice. vs is not modified.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	return s[min(max(rankOf(p, len(s)), 1), len(s))-1]
}

// rankOf is the nearest rank of the p-th percentile among n samples:
// ⌈p·n/100⌉, proof against p·n/100 landing a hair above an integer.
func rankOf(p float64, n int) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

// tailPercentiles are the candidates highestPercentile chooses from.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}

// highestPercentile returns the highest candidate percentile that still
// has at least ten of the n samples beyond it — the deepest tail the
// sample supports. ok is false when even the median has fewer.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n-rankOf(c, n) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vs, n=4) gives (the default "exclusive" method),
// which is what the acceptance driver computes spreads from. It needs
// at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of vs as a share of its median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
