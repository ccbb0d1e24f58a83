package main

import (
	"math"
	"sort"
)

// summary describes the samples of one host-time metric over rounds.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// median of xs; xs need not be sorted. NaN for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so spreads
// computed here and by an outside checker agree. With one sample both
// quartiles are that sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	if len(s) == 0 {
		return summary{}
	}
	q1, q3 := quartiles(s)
	return summary{N: len(s), Min: s[0], Q1: q1, Median: median(s), Q3: q3, Max: s[len(s)-1]}
}

// spread is the inter-quartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// Round protocol: start with defaultRounds; while any workload's run_s
// spread exceeds extendSpread, add a round for all workloads, up to
// maxRounds.
const (
	defaultRounds = 7
	maxRounds     = 11
	extendSpread  = 0.08
)

// needsMoreRounds reports whether another round should be run, given each
// workload's run_s samples so far.
func needsMoreRounds(runS [][]float64, rounds int) bool {
	if rounds >= maxRounds {
		return false
	}
	for _, xs := range runS {
		if spread(xs) > extendSpread {
			return true
		}
	}
	return false
}
