package main

import (
	"math"
	"sort"
)

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100) of
// ascending values: the smallest value with at least p% of the samples at
// or below it. It returns NaN for no samples.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[rankOf(n, p)-1]
}

// rankOf is the 1-based nearest rank of percentile p in n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// tailLadder is the percentiles a tail latency may be reported at, highest
// first. p99.9 is not on it: in sizing, the cache-hit p99.9 read 1.3 ms on
// one run and 12.0 ms on the next, so it cannot gate anything.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must rank above a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile that has at least
// minBeyond of n samples ranked beyond it, or 100 (the maximum) when n is
// too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= minBeyond {
			return p
		}
	}
	return 100
}

// dist summarizes one set of latency samples.
type dist struct {
	N     int
	P50   float64
	TailP float64 // the percentile Tail is taken at (100 = maximum)
	Tail  float64
}

func summarize(xs []float64) dist {
	s := sortedCopy(xs)
	d := dist{N: len(s), TailP: tailPercentile(len(s))}
	d.P50 = nearestRank(s, 50)
	d.Tail = nearestRank(s, d.TailP)
	return d
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), 50) }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (its default "exclusive"
// method), so A/B spreads read the same as the acceptance check's. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
