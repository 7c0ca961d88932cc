package thermal

import (
	"testing"

	"repro/internal/config"
	"repro/internal/floorplan"
)

// thermalBenchPlans are the floorplan-scaling points for the thermal
// benchmarks: the paper plan (26 blocks) plus meshes at N=30/300/3000
// blocks. The paper plan and N=30 solve steady states by Gaussian
// elimination, N=300 and N=3000 by conjugate gradient (gaussMaxNodes).
func thermalBenchPlans() []struct {
	name string
	plan *floorplan.Plan
} {
	return []struct {
		name string
		plan *floorplan.Plan
	}{
		{"paper", floorplan.Build(config.PlanIQConstrained)},
		{"N=30", floorplan.Mesh(5, 6)},
		{"N=300", floorplan.Mesh(15, 20)},
		{"N=3000", floorplan.Mesh(50, 60)},
	}
}

// BenchmarkThermalAdvance measures one sensor-interval thermal update at
// each floorplan scale; the per-op cost is the CSR Euler substeps for
// ~0.3 ms of thermal time. It must stay allocation-free at every size —
// the integration scratch lives on the model.
func BenchmarkThermalAdvance(b *testing.B) {
	cfg := config.Default()
	dt := float64(cfg.SensorIntervalCycles) * cfg.ThermalSecondsPerCycle()
	for _, tp := range thermalBenchPlans() {
		b.Run(tp.name, func(b *testing.B) {
			th := New(tp.plan, cfg)
			pow := make([]float64, tp.plan.NumBlocks())
			for i := range pow {
				pow[i] = 40.0 / float64(len(pow))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Advance(pow, dt)
			}
		})
	}
}

// BenchmarkThermalSteadyState compares the two steady-state solvers at
// each mesh scale, calling each directly whatever the size rule would
// pick: solver=sparse is conjugate gradient over the CSR graph,
// solver=dense Gaussian elimination. At N=3000 the O(n³) elimination
// takes seconds while CG finishes in milliseconds.
func BenchmarkThermalSteadyState(b *testing.B) {
	cfg := config.Default()
	for _, tp := range thermalBenchPlans() {
		if tp.name == "paper" {
			continue // the paper plan is covered by BenchmarkSteadyState
		}
		th := New(tp.plan, cfg)
		pow := make([]float64, tp.plan.NumBlocks())
		for i := range pow {
			pow[i] = 40.0 / float64(len(pow))
		}
		b.Run(tp.name+"/solver=sparse", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				th.solveCG(pow)
			}
		})
		b.Run(tp.name+"/solver=dense", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				th.solveGauss(pow)
			}
		})
	}
}

// BenchmarkSteadyState measures the steady-state solve on the paper
// floorplan, Gaussian elimination by size (the path every fig6 run
// warm-starts through).
func BenchmarkSteadyState(b *testing.B) {
	cfg := config.Default()
	plan := floorplan.Build(cfg.Plan)
	th := New(plan, cfg)
	pow := make([]float64, plan.NumBlocks())
	for i := range pow {
		pow[i] = 1.0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.SteadyState(pow)
	}
}
