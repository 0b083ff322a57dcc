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

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so that
// spreads computed here match the ones the acceptance check computes. A
// single sample is its own quartiles; no samples give NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		// j is 1-based and clamped to 1..n-1 before delta is taken, as in
		// statistics.quantiles; for tiny samples that extrapolates.
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / q2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs
// and how many samples lie strictly beyond it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)) - 1e-6))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tailLevels are the percentiles a tail is reported at, lowest first.
var tailLevels = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// tail returns the highest of tailLevels that still has at least ten
// samples beyond it, with its value. ok is false when even the median has
// fewer than ten samples beyond it.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, lvl := range tailLevels {
		val, beyond := percentile(xs, lvl)
		if beyond < 10 {
			break
		}
		p, v, ok = lvl, val, true
	}
	return p, v, ok
}

// failedFrac is failed operations over attempted ones; nothing attempted
// counts as total failure, so an empty run can never read as clean.
func failedFrac(attempted, failed int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
