package main

import (
	"math"
	"sort"
)

// The reducer: every statistic bpbench reports goes through these
// functions, so the rules the choosing-metrics guide fixes (median,
// the highest percentile with ten samples beyond it, spread as the
// quartile distance over the median) live in one unit-tested place.

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering the caller's slice. Empty input yields 0.
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

// midmean is the mean of the middle half of xs (the interquartile
// mean): as deaf to outlying slices as the median, but it averages ten
// of twenty slices instead of keeping one, so it varies less from run
// to run.
func midmean(xs []float64) float64 {
	s := sorted(xs)
	cut := len(s) / 4
	return mean(s[cut : len(s)-cut])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0 < p < 1) of xs by the
// nearest-rank rule on the sorted sample: the smallest value with at
// least p of the sample at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	// The epsilon keeps 0.9*100 = 90.00000000000001 at rank 90.
	i := int(math.Ceil(p*float64(len(s))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// beyond is how many samples must lie above a reported percentile for
// it to be trusted.
const beyond = 10

// highestPercentile picks, from the ladder 50/90/95/99/99.9, the
// highest percentile that still has at least ten samples beyond it in
// a sample of n. A sample too small for p50 reports 0.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 900, 950, 990, 999} {
		rank := (n*permille + 999) / 1000 // nearest rank, in integers
		if n-rank >= beyond {
			best = float64(permille) / 1000
		}
	}
	return best
}

// quartiles returns the first and third quartile with the exclusive
// method Python's statistics.quantiles(xs, n=4) uses, so a spread
// computed here matches the one the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median — the run-to-run noise figure every bound is compared with.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// worsening is how much worse cand is than base as a share of base:
// positive means a regression in the metric's own direction.
func worsening(base, cand float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cand) / math.Abs(base)
	}
	return (cand - base) / math.Abs(base)
}

// verdict classifies one (metric, workload) pair of a -check: the
// spread decides first, because a difference inside the noise is not a
// finding in either direction.
func verdict(worse, spreadSeen, bound float64) string {
	switch {
	case spreadSeen > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	default:
		return "within"
	}
}

// validName enforces the benchmark contract's name charset: starts
// with a letter or digit, then letters, digits, '_', '.', '-', at most
// 64 characters.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if alnum || i > 0 && (c == '_' || c == '.' || c == '-') {
			continue
		}
		return false
	}
	return true
}
