package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produce %d/100 identical values", same)
	}
}

func TestSeedReset(t *testing.T) {
	s := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Seed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after reseed, value %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(13)
	for _, mean := range []float64{1, 2, 5, 20} {
		sum := 0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += s.Geometric(mean)
		}
		got := float64(sum) / n
		want := mean
		if want < 1 {
			want = 1
		}
		if math.Abs(got-want) > want*0.1 {
			t.Fatalf("Geometric(%v) mean = %v", mean, got)
		}
	}
}

func TestGeometricMinimum(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		if v := s.Geometric(3); v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
	}
}

// TestGeometricTCapPinned pins the GeometricMaxTrials cap behavior: a
// threshold so small that no trial can succeed returns exactly the cap and
// consumes exactly cap-1 draws. The draw count is the load-bearing part —
// every downstream draw shifts if the cap moves — so the test counts draws
// by diffing against a shadow source.
func TestGeometricTCapPinned(t *testing.T) {
	if GeometricMaxTrials != 1<<20 {
		t.Fatalf("GeometricMaxTrials = %d, want %d (changing it shifts every draw after a capped sample)",
			GeometricMaxTrials, 1<<20)
	}
	// t=1 succeeds only on a draw of u53 == 0: with ~2^-53 odds per trial,
	// the capped path is (for any practical stream) always taken. Verify
	// against the seed used here that no trial succeeded early.
	s := New(31337)
	if got := s.GeometricT(1); got != GeometricMaxTrials {
		t.Fatalf("GeometricT(1) = %d, want the GeometricMaxTrials cap (%d)", got, GeometricMaxTrials)
	}
	// Draw-count pin: the capped sample consumed exactly cap-1 draws
	// (trial n fails and increments n, loop exits when n reaches the cap).
	shadow := New(31337)
	for i := 0; i < GeometricMaxTrials-1; i++ {
		shadow.Uint64()
	}
	if a, b := s.Uint64(), shadow.Uint64(); a != b {
		t.Fatalf("capped GeometricT consumed a different number of draws: next draw %#x, want %#x", a, b)
	}
	// A zero threshold (mean <= 1) draws nothing at all.
	s.Seed(5)
	shadow.Seed(5)
	if got := s.GeometricT(0); got != 1 {
		t.Fatalf("GeometricT(0) = %d, want 1", got)
	}
	if a, b := s.Uint64(), shadow.Uint64(); a != b {
		t.Fatal("GeometricT(0) consumed a draw; it must consume none")
	}
}

func TestRangeInclusive(t *testing.T) {
	s := New(19)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := s.Range(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("Range(3,6) = %d", v)
		}
		if v == 3 {
			seenLo = true
		}
		if v == 6 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Fatal("Range(3,6) never hit an endpoint")
	}
}

func TestRangeSingleton(t *testing.T) {
	s := New(23)
	if v := s.Range(5, 5); v != 5 {
		t.Fatalf("Range(5,5) = %d", v)
	}
}

// Property: every seed yields values in range for Intn across arbitrary n.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: reseeding always reproduces the stream.
func TestQuickSeedReproducible(t *testing.T) {
	f := func(seed uint64) bool {
		a := New(seed)
		b := New(seed)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
