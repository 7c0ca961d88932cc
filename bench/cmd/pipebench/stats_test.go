package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 99.5, 100},
		{hundred, 100, 100},
		{hundred, 0.1, 1},
		{[]float64{1, 2, 3}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{7}, 99, 7},
	} {
		if got := nearestRank(c.xs, c.p); got != c.want {
			t.Errorf("nearestRank(n=%d, p%v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("nearestRank of no samples should be NaN")
	}
}

// The tail is the highest ladder percentile with at least ten samples
// ranked above it; below 20 samples no percentile qualifies.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{80_000, 99}, {1010, 99}, {1000, 99}, {999, 95}, {984, 95},
		{200, 95}, {100, 90}, {40, 75}, {39, 50}, {26, 50}, {20, 50}, {19, 100}, {6, 100}, {1, 100},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p < 100 && c.n-rankOf(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, p, c.n-rankOf(c.n, p))
		}
	}
}

func TestSummarizeFailuresSortLast(t *testing.T) {
	xs := []float64{3, 1, math.Inf(1), 2}
	d := summarize(xs)
	if d.N != 4 || d.P50 != 2 || d.TailP != 100 || !math.IsInf(d.Tail, 1) {
		t.Errorf("summarize = %+v, want p50 2 and an infinite maximum", d)
	}
	if xs[0] != 3 {
		t.Error("summarize reordered its input")
	}
}

// quartiles must read like Python's statistics.quantiles(xs, n=4), the
// method the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
