package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
)

func TestHitPayloadsSeeded(t *testing.T) {
	a, err := hitPayloads(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := hitPayloads(7)
	c, _ := hitPayloads(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew different hit payloads")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same hit payloads")
	}
	keys := map[string]bool{}
	for _, p := range a {
		k, err := p.request().Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
		if err := p.request().Validate(); err != nil {
			t.Errorf("payload %v invalid: %v", p, err)
		}
	}
	if len(keys) != hitCells {
		t.Errorf("%d distinct keys in %d hit payloads", len(keys), hitCells)
	}
}

func TestMissStreamSeededAndDistinct(t *testing.T) {
	const n = 2000
	a, b := newMissStream(3), newMissStream(3)
	keys := map[string]bool{}
	// Request i depends on the seed and i only, not on the order requests
	// are asked for, which concurrent senders do not fix.
	for i := n - 1; i >= 0; i-- {
		if _, err := b.at(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		ca, err := a.at(i)
		if err != nil {
			t.Fatal(err)
		}
		cb, _ := b.at(i)
		if ca != cb {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		k, _ := ca.request().Key()
		if keys[k] {
			t.Fatalf("request %d repeats an earlier key", i)
		}
		keys[k] = true
		if ca.Cycles < 40_000 || ca.Cycles > 80_000 || ca.Warmup < 1_000 || ca.Warmup > 20_000 {
			t.Errorf("request %d out of range: %v", i, ca)
		}
	}
	other, _ := newMissStream(4).at(0)
	if first, _ := a.at(0); first == other {
		t.Error("seeds 3 and 4 start with the same request")
	}
}

func TestHitKeysSeeded(t *testing.T) {
	a, b := hitKeys(5), hitKeys(5)
	counts := make([]int, hitCells)
	for i := 0; i < 20_000; i++ {
		k := a()
		if k != b() {
			t.Fatalf("key %d differs between two sequences of one seed", i)
		}
		counts[k]++
	}
	hottest, used := 0, 0
	for _, c := range counts {
		hottest = max(hottest, c)
		if c > 0 {
			used++
		}
	}
	// Zipf(1.1) over 512 keys: a skewed but wide working set.
	if hottest < 20_000/20 || used < hitCells/2 {
		t.Errorf("hottest key %d of 20000 draws, %d keys used: not Zipf-like", hottest, used)
	}
}

func TestPaperShapesCoverTheFigures(t *testing.T) {
	if got := len(paperShapes()); got != 13 {
		t.Errorf("%d shapes, want the 13 variants of fig6, fig7, fig8 and temporal", got)
	}
}

// cellLatencies relies on runner.Run handing cells out in index order:
// with two workers, cell k >= 2 starts when the (k-1)-th cell completes.
func TestCellLatencies(t *testing.T) {
	m := &experiments.Matrix{Cells: []experiments.Cell{
		{Benchmark: "eon", Variant: "base"}, {Benchmark: "eon", Variant: "activity-toggling"},
		{Benchmark: "mesa", Variant: "base"}, {Benchmark: "mesa", Variant: "activity-toggling"},
	}}
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	clk := &progressClock{
		// Completion order: cell 1 at 10, cell 0 at 12, cell 2 at 25, cell 3 at 30.
		at: []time.Time{at(10), at(12), at(25), at(30)},
		lines: []string{
			"[  1/  4] fig6 eon       activity-toggling        IPC=1.000 stalls=0\n",
			"[  2/  4] fig6 eon       base                     IPC=1.000 stalls=0\n",
			"[  3/  4] fig6 mesa      base                     IPC=1.000 stalls=0\n",
			"[  4/  4] fig6 mesa      activity-toggling        IPC=1.000 stalls=0\n",
		},
	}
	lat, tail, err := cellLatencies(m, clk, t0, at(31), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Cell 2 starts at the first completion (10), cell 3 at the second (12).
	if want := []float64{12, 10, 15, 18}; !reflect.DeepEqual(lat, want) {
		t.Errorf("latencies %v, want %v", lat, want)
	}
	// After cell 3 is handed out, the third completion (25) idles a worker.
	if tail != 6*time.Millisecond {
		t.Errorf("tail %v, want 6ms", tail)
	}
	clk.lines[0] = "[  1/  4] fig6 gzip base IPC=1.000\n"
	if _, _, err := cellLatencies(m, clk, t0, at(31), 2); err == nil {
		t.Error("a progress line naming no cell was accepted")
	}
}
