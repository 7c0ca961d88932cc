package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestSharedWarmupParallel: Run builds each benchmark's warm state once
// and every variant loads a copy. Every cell of the four variant-matrix
// experiments must still be bit-identical, unexported temperature
// vectors included, to a cell built on its own with sim.NewByName that
// replays its own warmup — serially and on eight workers.
func TestSharedWarmupParallel(t *testing.T) {
	const cycles, warmup = 60_000, 30_000
	for _, id := range []string{"fig6", "fig7", "fig8", "temporal"} {
		spec, err := ByID(id, cycles, "eon", "mesa")
		if err != nil {
			t.Fatal(err)
		}
		spec.Warmup = warmup
		var want []Cell
		for _, b := range spec.Benchmarks {
			for _, v := range spec.Variants {
				cfg := config.Default()
				cfg.Plan = spec.Plan
				cfg.Techniques = v.Tech
				s, err := sim.NewByName(cfg, b)
				if err != nil {
					t.Fatal(err)
				}
				s.WarmupInstructions = warmup
				want = append(want, Cell{Benchmark: b, Variant: v.Name, R: s.RunCycles(cycles)})
			}
		}
		for _, p := range []int{1, 8} {
			spec.Parallelism = p
			m, err := Run(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Cells) != len(want) {
				t.Fatalf("%s P=%d: %d cells, want %d", id, p, len(m.Cells), len(want))
			}
			for i, c := range m.Cells {
				if !reflect.DeepEqual(c, want[i]) {
					t.Errorf("%s P=%d: cell %s/%s differs from its self-warmed reference:\n got %v\nwant %v",
						id, p, c.Benchmark, c.Variant, c.R, want[i].R)
				}
			}
		}
	}
}
