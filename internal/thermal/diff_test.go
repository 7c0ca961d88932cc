// Differential suite. The transient has one implementation, the CSR
// Euler step, and it is held bit for bit against the historical dense
// loop over every node pair (denseOracle), on every node — spreader and
// sink included — together with the integration-contract telemetry
// (AdvanceCalls, MaxStableStep). Steady states and warm starts are held
// against Gaussian elimination: bitwise up to 64 nodes, where the size
// rule picks elimination, within diffTol above, where it picks
// conjugate gradient, and CG itself stays within diffTol of
// elimination at every size. Plans come from the paper floorplans, a
// two-core tiled die, synthetic meshes, and seeded random guillotine
// plans on both sides of gaussMaxNodes.
//
// The file also carries the property tests (conductance symmetry,
// zero-power relaxation, steady-state energy balance, monotonicity in
// power), run against both steady-state solvers.
package thermal

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/floorplan"
)

// diffPlans are the floorplans the differential suite runs over: every
// paper variant, the two-core die, and synthetic plans up to just past
// gaussMaxNodes.
func diffPlans() map[string]*floorplan.Plan {
	return map[string]*floorplan.Plan{
		"paper-iq":  floorplan.Build(config.PlanIQConstrained),
		"paper-alu": floorplan.Build(config.PlanALUConstrained),
		"paper-rf":  floorplan.Build(config.PlanRFConstrained),
		"tile-1x2":  floorplan.Tile(floorplan.Build(config.PlanIQConstrained), 1, 2), // 54 nodes
		"mesh-4x4":  floorplan.Mesh(4, 4),
		"mesh-7x8":  floorplan.Mesh(7, 8),
		"rand-20":   floorplan.Random(20, 0xfeed),
		"rand-45":   floorplan.Random(45, 0xbeef),
		"rand-62":   floorplan.Random(62, 0xcafe), // 64 nodes: the largest elimination network
		"rand-63":   floorplan.Random(63, 0xcafe), // 65 nodes: the smallest CG network
	}
}

// lcg is a tiny deterministic generator for test power vectors.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(uint64(*l)>>11) / (1 << 53)
}

func randomPower(rng *lcg, n int, maxW float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = maxW * rng.next()
	}
	return p
}

const diffTol = 1e-9

// denseOracle is the historical dense integrator, kept as the
// transient's executable specification: a mirrored [][]float64
// conductance matrix, an Euler substep that loops over every node pair
// and skips zero conductances, and Advance's subdivision rule.
type denseOracle struct {
	g          [][]float64
	gAmb, c, t []float64
	n          int
	ambient    float64
	maxStable  float64
}

// newDenseOracle mirrors m's network and current state.
func newDenseOracle(m *Model) *denseOracle {
	nt := m.nTotal
	o := &denseOracle{
		g:       make([][]float64, nt),
		gAmb:    append([]float64(nil), m.gAmb...),
		c:       append([]float64(nil), m.c...),
		t:       append([]float64(nil), m.t...),
		n:       m.n,
		ambient: m.ambient,
	}
	minTau := math.Inf(1)
	for i := range o.g {
		o.g[i] = make([]float64, nt)
		sum := o.gAmb[i]
		for j := range o.g[i] {
			o.g[i][j] = m.conductance(i, j)
			sum += o.g[i][j]
		}
		if sum > 0 {
			minTau = math.Min(minTau, o.c[i]/sum)
		}
	}
	o.maxStable = minTau / 2
	return o
}

func (o *denseOracle) advance(power []float64, seconds float64) {
	steps := int(seconds/o.maxStable) + 1
	dt := seconds / float64(steps)
	d := make([]float64, len(o.t))
	for s := 0; s < steps; s++ {
		for i, gi := range o.g {
			flow := 0.0
			ti := o.t[i]
			for j, gij := range gi {
				if gij != 0 {
					flow += gij * (o.t[j] - ti)
				}
			}
			if o.gAmb[i] != 0 {
				flow += o.gAmb[i] * (o.ambient - ti)
			}
			if i < o.n {
				flow += power[i]
			}
			d[i] = dt / o.c[i] * flow
		}
		for i := range o.t {
			o.t[i] += d[i]
		}
	}
}

// TestDiffTransientLockstep drives the model and the dense oracle
// through the same Advance sequence — varied powers, varied durations,
// including sub-stability and many-substep calls — and requires equal
// bits on every node at every checkpoint, plus exact AdvanceCalls and
// MaxStableStep.
func TestDiffTransientLockstep(t *testing.T) {
	const calls = 200
	for name, plan := range diffPlans() {
		t.Run(name, func(t *testing.T) {
			m := New(plan, config.Default())
			o := newDenseOracle(m)
			if m.MaxStableStep() != o.maxStable {
				t.Fatalf("MaxStableStep %v, dense oracle %v", m.MaxStableStep(), o.maxStable)
			}
			rng := lcg(0x5eed)
			for call := 0; call < calls; call++ {
				pow := randomPower(&rng, plan.NumBlocks(), 3.0)
				// Mix durations: fractions of the stable step through
				// hundreds of substeps.
				dur := o.maxStable * math.Pow(10, 4*rng.next()-1)
				m.Advance(pow, dur)
				o.advance(pow, dur)
				for i, want := range o.t {
					if m.t[i] != want {
						t.Fatalf("call %d node %d: model %.17g dense oracle %.17g", call, i, m.t[i], want)
					}
				}
			}
			if m.AdvanceCalls != calls {
				t.Fatalf("AdvanceCalls = %d, want %d", m.AdvanceCalls, calls)
			}
		})
	}
}

// requireSteady compares a full node solution against Gaussian
// elimination: bitwise up to 64 nodes, within diffTol above. The literal
// is the contract rather than gaussMaxNodes itself: the paper plans and
// the two-core die must stay on elimination, whose bits the result pins
// and benchmark digests depend on.
func requireSteady(t *testing.T, m *Model, what string, got, gauss []float64) {
	t.Helper()
	for i := range got {
		if m.nTotal <= 64 {
			if got[i] != gauss[i] {
				t.Fatalf("%s node %d: %.17g, elimination %.17g (%d nodes must match bitwise)",
					what, i, got[i], gauss[i], m.nTotal)
			}
		} else if d := math.Abs(got[i] - gauss[i]); d > diffTol {
			t.Fatalf("%s node %d: %.12f, elimination %.12f (Δ %.3g)", what, i, got[i], gauss[i], d)
		}
	}
}

// TestDiffSteadyState holds SteadyState to Gaussian elimination on
// random power vectors, and CG — called directly — within diffTol of
// elimination at every size.
func TestDiffSteadyState(t *testing.T) {
	for name, plan := range diffPlans() {
		t.Run(name, func(t *testing.T) {
			m := New(plan, config.Default())
			rng := lcg(0xabcde)
			for trial := 0; trial < 10; trial++ {
				pow := randomPower(&rng, plan.NumBlocks(), 4.0)
				gauss := m.solveGauss(pow)
				for i, x := range m.solveCG(pow) {
					if d := math.Abs(x - gauss[i]); d > diffTol {
						t.Fatalf("trial %d node %d: elimination %.12f cg %.12f (Δ %.3g)", trial, i, gauss[i], x, d)
					}
				}
				requireSteady(t, m, "SteadyState", m.SteadyState(pow), gauss[:m.n])
			}
		})
	}
}

// TestDiffWarmStart checks the full warm-start state (blocks, spreader,
// sink) against Gaussian elimination, then that it holds steady under
// the same power.
func TestDiffWarmStart(t *testing.T) {
	for name, plan := range diffPlans() {
		t.Run(name, func(t *testing.T) {
			m := New(plan, config.Default())
			rng := lcg(0x77)
			pow := randomPower(&rng, plan.NumBlocks(), 2.5)
			m.WarmStart(pow)
			gauss := m.solveGauss(pow)
			requireSteady(t, m, "WarmStart", m.t, gauss)
			m.Advance(pow, 1e-3)
			for i := range gauss {
				if d := math.Abs(m.t[i] - gauss[i]); d > 1e-6 {
					t.Fatalf("drifted from the steady state at node %d (Δ %.3g)", i, d)
				}
			}
		})
	}
}

// --- Property tests ---------------------------------------------------------

// eachSolver runs f once per steady-state solver, called directly so
// both are held to the properties at every plan size: "dense" is
// Gaussian elimination, "sparse" conjugate gradient. steady returns
// every node's equilibrium: blocks, then spreader and sink.
func eachSolver(t *testing.T, plan *floorplan.Plan, f func(t *testing.T, m *Model, steady func([]float64) []float64, cfg *config.Config)) {
	for _, s := range []struct {
		name  string
		solve func(*Model, []float64) []float64
	}{{"dense", (*Model).solveGauss}, {"sparse", (*Model).solveCG}} {
		t.Run(s.name, func(t *testing.T) {
			cfg := config.Default()
			m := New(plan, cfg)
			steady := func(p []float64) []float64 { return append([]float64(nil), s.solve(m, p)...) }
			f(t, m, steady, cfg)
		})
	}
}

func propertyPlans() map[string]*floorplan.Plan {
	return map[string]*floorplan.Plan{
		"paper-iq": floorplan.Build(config.PlanIQConstrained),
		"mesh-6x7": floorplan.Mesh(6, 7),
		"mesh-9x9": floorplan.Mesh(9, 9), // 83 nodes: CG by size
		"rand-33":  floorplan.Random(33, 0x1234),
	}
}

// TestPropertyConductanceSymmetry: g[i][j] == g[j][i] for every node
// pair (this pins the CSR construction, not just the accessor).
func TestPropertyConductanceSymmetry(t *testing.T) {
	for name, plan := range propertyPlans() {
		t.Run(name, func(t *testing.T) {
			eachSolver(t, plan, func(t *testing.T, m *Model, _ func([]float64) []float64, _ *config.Config) {
				for i := 0; i < m.nTotal; i++ {
					for j := i + 1; j < m.nTotal; j++ {
						if gij, gji := m.conductance(i, j), m.conductance(j, i); gij != gji {
							t.Fatalf("asymmetric conductance (%d,%d): %v vs %v", i, j, gij, gji)
						}
					}
				}
			})
		})
	}
}

// TestPropertyZeroPowerRelaxation: with no power, any initial state
// relaxes toward ambient, and the zero-power steady state is ambient
// exactly (to solver tolerance).
func TestPropertyZeroPowerRelaxation(t *testing.T) {
	for name, plan := range propertyPlans() {
		t.Run(name, func(t *testing.T) {
			eachSolver(t, plan, func(t *testing.T, m *Model, steady func([]float64) []float64, cfg *config.Config) {
				n := m.NumBlocks()
				for i, temp := range steady(make([]float64, n)) {
					if math.Abs(temp-cfg.AmbientK) > 1e-6 {
						t.Fatalf("node %d zero-power steady state %v", i, temp)
					}
				}
				hot := make([]float64, n)
				for i := range hot {
					hot[i] = cfg.AmbientK + 20
				}
				m.SetTemps(hot)
				before := m.Temp(0)
				m.Advance(make([]float64, n), 0.050)
				after := m.Temp(0)
				if after >= before {
					t.Fatalf("no relaxation: %.3f -> %.3f", before, after)
				}
				if after < cfg.AmbientK-1e-9 {
					t.Fatalf("undershot ambient: %.6f", after)
				}
			})
		})
	}
}

// TestPropertyEnergyBalance: at steady state, all injected power leaves
// through the convection resistance, so the sink sits at exactly
// ambient + P_total·R_conv.
func TestPropertyEnergyBalance(t *testing.T) {
	for name, plan := range propertyPlans() {
		t.Run(name, func(t *testing.T) {
			eachSolver(t, plan, func(t *testing.T, m *Model, steady func([]float64) []float64, cfg *config.Config) {
				rng := lcg(0x42)
				pow := randomPower(&rng, m.NumBlocks(), 2.0)
				total := 0.0
				for _, p := range pow {
					total += p
				}
				want := cfg.AmbientK + total*cfg.ConvectionRes
				if got := steady(pow)[m.n+1]; math.Abs(got-want) > 1e-6 {
					t.Fatalf("sink %v, want %v (conservation violated)", got, want)
				}
			})
		})
	}
}

// TestPropertyMonotoneInPower: raising one block's power never lowers
// any block's steady-state temperature, and strictly raises its own.
func TestPropertyMonotoneInPower(t *testing.T) {
	for name, plan := range propertyPlans() {
		t.Run(name, func(t *testing.T) {
			eachSolver(t, plan, func(t *testing.T, m *Model, steady func([]float64) []float64, _ *config.Config) {
				rng := lcg(0x99)
				base := randomPower(&rng, m.NumBlocks(), 1.0)
				low := steady(base)
				for _, idx := range []int{0, m.NumBlocks() / 2, m.NumBlocks() - 1} {
					bumped := make([]float64, len(base))
					copy(bumped, base)
					bumped[idx] += 1.5
					high := steady(bumped)
					for i := range low {
						if high[i] < low[i]-1e-9 {
							t.Fatalf("node %d cooled when block %d's power rose", i, idx)
						}
					}
					if high[idx]-low[idx] < 1e-4 {
						t.Fatalf("block %d barely warmed under its own power", idx)
					}
				}
			})
		})
	}
}

// TestLargeMeshEndToEnd is the scale acceptance check: a 3000-node mesh
// plan (50×60 blocks) builds, integrates transients, and solves steady
// states by conjugate gradient, with physically sane results.
func TestLargeMeshEndToEnd(t *testing.T) {
	rows, cols := 50, 60
	if testing.Short() {
		rows, cols = 20, 30
	}
	plan := floorplan.Mesh(rows, cols)
	cfg := config.Default()
	m := New(plan, cfg)
	if m.nTotal <= gaussMaxNodes {
		t.Fatalf("%d nodes would not take the CG path", m.nTotal)
	}
	n := plan.NumBlocks()
	pow := make([]float64, n)
	total := 0.0
	for i := range pow {
		pow[i] = 40.0 / float64(n) // ~40 W chip
		total += pow[i]
	}
	// Steady state: energy balance pins the sink; the interior must sit
	// above ambient and below an absurd bound.
	m.WarmStart(pow)
	wantSink := cfg.AmbientK + total*cfg.ConvectionRes
	if got := m.SinkTemp(); math.Abs(got-wantSink) > 1e-6 {
		t.Fatalf("sink %v, want %v", got, wantSink)
	}
	for i := 0; i < n; i++ {
		if temp := m.Temp(i); math.IsNaN(temp) || temp < cfg.AmbientK || temp > 500 {
			t.Fatalf("block %d unphysical steady temp %v", i, temp)
		}
	}
	// Transient: a sensor interval's worth of integration stays finite
	// and counts one Advance.
	dt := float64(cfg.SensorIntervalCycles) * cfg.ThermalSecondsPerCycle()
	m.Advance(pow, dt)
	if m.AdvanceCalls != 1 {
		t.Fatalf("AdvanceCalls = %d", m.AdvanceCalls)
	}
	for i := 0; i < n; i++ {
		if temp := m.Temp(i); math.IsNaN(temp) || temp > 500 {
			t.Fatalf("block %d unphysical transient temp %v", i, temp)
		}
	}
	// And a corner block heated alone must dominate its diagonal
	// opposite (vertical-dominance sanity at scale).
	solo := make([]float64, n)
	solo[plan.Index(floorplan.MeshCell(0, 0))] = 5.0
	ss := m.SteadyState(solo)
	hot := ss[plan.Index(floorplan.MeshCell(0, 0))]
	far := ss[plan.Index(floorplan.MeshCell(rows-1, cols-1))]
	if hot-cfg.AmbientK < 2*(far-cfg.AmbientK) {
		t.Fatalf("no locality at scale: hot rise %.4f vs far rise %.4f", hot-cfg.AmbientK, far-cfg.AmbientK)
	}
}

// TestSparseAdvanceDoesNotAllocate locks the transient path to zero
// steady-state heap traffic at paper and mesh scale: the per-interval
// Advance sits on the simulator's hot loop.
func TestSparseAdvanceDoesNotAllocate(t *testing.T) {
	cfg := config.Default()
	for _, plan := range []*floorplan.Plan{floorplan.Build(config.PlanIQConstrained), floorplan.Mesh(20, 20)} {
		m := New(plan, cfg)
		pow := make([]float64, plan.NumBlocks())
		for i := range pow {
			pow[i] = 0.05
		}
		dt := m.MaxStableStep() * 10
		if avg := testing.AllocsPerRun(50, func() { m.Advance(pow, dt) }); avg != 0 {
			t.Fatalf("%d-node Advance allocates %.1f objects per call", m.nTotal, avg)
		}
	}
}

// TestSteadyStateScratchReuse: repeated CG steady-state solves reuse the
// scratch — only the returned result slice is allocated.
func TestSteadyStateScratchReuse(t *testing.T) {
	plan := floorplan.Mesh(15, 15)
	m := New(plan, config.Default())
	pow := make([]float64, plan.NumBlocks())
	pow[0] = 2.0
	m.SteadyState(pow) // size the scratch
	if avg := testing.AllocsPerRun(20, func() { m.SteadyState(pow) }); avg > 1 {
		t.Fatalf("CG SteadyState allocates %.1f objects per call, want just the result", avg)
	}
}
