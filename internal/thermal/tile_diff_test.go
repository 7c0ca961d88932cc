// Differential coverage for the multicore-shared thermal network: a 2×2
// tiling of the paper plan (104 blocks + spreader + sink) is above
// gaussMaxNodes, so its steady states take the conjugate-gradient path —
// held here against Gaussian elimination at the same 1e-9 the
// single-plan differential suite uses. The file also proves degenerate
// single-block plans (the floorplan edge cases) build working models and
// that both steady-state solvers agree on them.
package thermal

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/floorplan"
)

// TestTiledSharedNetworkDifferential: CG steady states on the shared
// 4-core die match Gaussian elimination within diffTol, and a
// warm-started shared network holds its steady state under transient
// integration.
func TestTiledSharedNetworkDifferential(t *testing.T) {
	plan := floorplan.Tile(floorplan.Build(config.PlanIQConstrained), 2, 2)
	cfg := config.Default()
	m := New(plan, cfg)
	if m.nTotal <= gaussMaxNodes {
		t.Fatalf("4 tiled cores have %d nodes; the shared network should take the CG path", m.nTotal)
	}
	rng := lcg(0x4c07e5)
	n := plan.NumBlocks()
	for trial := 0; trial < 10; trial++ {
		pow := randomPower(&rng, n, 3.0)
		want := m.solveGauss(pow)
		got := m.SteadyState(pow)
		for i := range got {
			if d := math.Abs(want[i] - got[i]); d > diffTol {
				t.Fatalf("trial %d block %d (%s): gaussian %.12f cg %.12f (Δ %.3g)",
					trial, i, plan.Blocks[i].Name, want[i], got[i], d)
			}
		}
	}
	// Warm start then integrate under the same power: no drift.
	pow := randomPower(&rng, n, 2.0)
	ref := m.solveGauss(pow)
	m.WarmStart(pow)
	for i := range ref {
		if d := math.Abs(m.t[i] - ref[i]); d > diffTol {
			t.Fatalf("warm start node %d off the elimination steady state by %.3g", i, d)
		}
	}
	m.Advance(pow, 2e-3)
	for i := range ref {
		if d := math.Abs(m.t[i] - ref[i]); d > 1e-6 {
			t.Fatalf("shared network drifted from steady state at node %d (Δ %.3g)", i, d)
		}
	}
	// Energy balance on the shared die: sink sits at ambient plus total
	// power through the convection resistance.
	total := 0.0
	for _, p := range pow {
		total += p
	}
	wantSink := cfg.AmbientK + total*cfg.ConvectionRes
	if d := math.Abs(m.SinkTemp() - wantSink); d > 1e-6 {
		t.Fatalf("sink %.9f, energy balance wants %.9f", m.SinkTemp(), wantSink)
	}
}

// TestTiledHeatCrossesCoreBoundary: power on core 0 alone must raise core
// 1's blocks above ambient — the tiles share one temperature field, they
// are not four isolated dies.
func TestTiledHeatCrossesCoreBoundary(t *testing.T) {
	base := floorplan.Build(config.PlanIQConstrained)
	nb := base.NumBlocks()
	plan := floorplan.Tile(base, 1, 2)
	cfg := config.Default()
	m := New(plan, cfg)
	pow := make([]float64, plan.NumBlocks())
	for i := 0; i < nb; i++ {
		pow[i] = 2.0 // heat core 0 only
	}
	temps := m.SteadyState(pow)
	hottestIdle := 0.0
	for i := nb; i < 2*nb; i++ {
		if temps[i] > hottestIdle {
			hottestIdle = temps[i]
		}
	}
	// The sink couples everything; lateral coupling must add measurably
	// more than the sink-level rise on top of it for blocks near the seam.
	sinkLevel := m.SinkTemp()
	if hottestIdle <= sinkLevel+0.5 {
		t.Fatalf("idle core peak %.4f barely above sink %.4f: no lateral coupling across the seam",
			hottestIdle, sinkLevel)
	}
}

// TestDegeneratePlanThermalConstruction: single-block and single-row
// plans (the floorplan generators' edge cases) build valid models, both
// steady-state solvers agree on them, and they satisfy the steady-state
// energy balance.
func TestDegeneratePlanThermalConstruction(t *testing.T) {
	plans := map[string]*floorplan.Plan{
		"mesh-1x1": floorplan.Mesh(1, 1),
		"mesh-1x4": floorplan.Mesh(1, 4),
		"rand-1":   floorplan.Random(1, 7),
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			cfg := config.Default()
			m := New(plan, cfg)
			n := plan.NumBlocks()
			pow := make([]float64, n)
			total := 0.0
			for i := range pow {
				pow[i] = 1.5 + 0.5*float64(i)
				total += pow[i]
			}
			st := m.SteadyState(pow)
			for i, x := range m.solveCG(pow)[:n] {
				if d := math.Abs(x - st[i]); d > diffTol {
					t.Fatalf("block %d: elimination %.12f cg %.12f", i, st[i], x)
				}
				if st[i] <= cfg.AmbientK {
					t.Fatalf("block %d steady state %.4f not above ambient", i, st[i])
				}
			}
			// Transient integration moves from ambient toward the steady
			// state without overshooting it.
			for step := 0; step < 50; step++ {
				m.Advance(pow, 1e-3)
			}
			for i := 0; i < n; i++ {
				if got := m.Temp(i); got <= cfg.AmbientK || got > st[i]+diffTol {
					t.Fatalf("block %d transient %.6f outside (ambient %.2f, steady %.6f]",
						i, got, cfg.AmbientK, st[i])
				}
			}
			// A warm-started model satisfies the energy balance and holds
			// its steady state.
			m.WarmStart(pow)
			wantSink := cfg.AmbientK + total*cfg.ConvectionRes
			if d := math.Abs(m.SinkTemp() - wantSink); d > 1e-6 {
				t.Fatalf("sink %.9f, energy balance wants %.9f", m.SinkTemp(), wantSink)
			}
			m.Advance(pow, 1e-3)
			for i := 0; i < n; i++ {
				if d := math.Abs(m.Temp(i) - st[i]); d > 1e-6 {
					t.Fatalf("block %d drifted from steady state by %.3g", i, d)
				}
			}
		})
	}
}
