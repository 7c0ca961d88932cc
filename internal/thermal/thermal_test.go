package thermal

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/floorplan"
)

func newModel(t testing.TB) (*Model, *floorplan.Plan, *config.Config) {
	t.Helper()
	cfg := config.Default()
	plan := floorplan.Build(config.PlanIQConstrained)
	return New(plan, cfg), plan, cfg
}

func TestInitialTemperaturesAmbient(t *testing.T) {
	m, _, cfg := newModel(t)
	for i := 0; i < m.NumBlocks(); i++ {
		if m.Temp(i) != cfg.AmbientK {
			t.Fatalf("block %d starts at %v", i, m.Temp(i))
		}
	}
}

func TestSteadyStateZeroPowerIsAmbient(t *testing.T) {
	m, _, cfg := newModel(t)
	ts := m.SteadyState(make([]float64, m.NumBlocks()))
	for i, temp := range ts {
		if math.Abs(temp-cfg.AmbientK) > 1e-6 {
			t.Fatalf("block %d steady state %v with zero power", i, temp)
		}
	}
}

func TestSteadyStateEnergyConservation(t *testing.T) {
	// At steady state all injected power must leave through the
	// convection resistance: T_sink - T_amb = P_total * R_conv.
	m, _, cfg := newModel(t)
	p := make([]float64, m.NumBlocks())
	total := 0.0
	for i := range p {
		p[i] = 1.5
		total += p[i]
	}
	m.WarmStart(p)
	wantSink := cfg.AmbientK + total*cfg.ConvectionRes
	if got := m.SinkTemp(); math.Abs(got-wantSink) > 1e-6 {
		t.Fatalf("sink temp %v, want %v", got, wantSink)
	}
}

func TestSteadyStateMonotoneInPower(t *testing.T) {
	m, plan, _ := newModel(t)
	idx := plan.Index(floorplan.IntQ0)
	p := make([]float64, m.NumBlocks())
	p[idx] = 1.0
	low := m.SteadyState(p)
	p[idx] = 2.0
	high := m.SteadyState(p)
	for i := range low {
		if high[i] < low[i]-1e-12 {
			t.Fatalf("block %d temp decreased when power increased", i)
		}
	}
	if high[idx]-low[idx] < 1e-3 {
		t.Fatal("powered block barely warmed")
	}
}

func TestVerticalDominatesLateral(t *testing.T) {
	// Power one ALU only: it must get much hotter than its neighbour,
	// reproducing the paper's observation that heat conducts mostly
	// vertically. (§4.2 observes >4 K spread across adjacent ALUs.)
	m, plan, cfg := newModel(t)
	hot := plan.Index(floorplan.IntExec(0))
	neighbor := plan.Index(floorplan.IntExec(1))
	p := make([]float64, m.NumBlocks())
	p[hot] = 2.0
	ts := m.SteadyState(p)
	riseHot := ts[hot] - cfg.AmbientK
	riseNb := ts[neighbor] - cfg.AmbientK
	if riseHot < 2*riseNb {
		t.Fatalf("hot rise %.3f vs neighbour rise %.3f: lateral conduction too strong", riseHot, riseNb)
	}
	if riseNb <= 0 {
		t.Fatal("no lateral conduction at all")
	}
}

func TestAdvanceConvergesToSteadyState(t *testing.T) {
	m, _, _ := newModel(t)
	p := make([]float64, m.NumBlocks())
	for i := range p {
		p[i] = 1.0
	}
	want := m.SteadyState(p)
	// Start from the steady state of a colder trace and integrate for
	// several sink time constants (the slowest pole, ~70 s).
	half := make([]float64, m.NumBlocks())
	for i := range half {
		half[i] = 0.5
	}
	m.WarmStart(half)
	m.Advance(p, 500)
	for i := range want {
		if math.Abs(m.Temp(i)-want[i]) > 0.05 {
			t.Fatalf("block %d: advanced to %.3f, steady state %.3f", i, m.Temp(i), want[i])
		}
	}
}

func TestCapacitanceScalingPreservesSteadyState(t *testing.T) {
	m1, _, _ := newModel(t)
	m2, _, _ := newModel(t)
	m2.ScaleCapacitances(1.0 / 64)
	p := make([]float64, m1.NumBlocks())
	p[0] = 3.0
	s1 := m1.SteadyState(p)
	s2 := m2.SteadyState(p)
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > 1e-9 {
			t.Fatalf("steady state changed by capacitance scaling at block %d", i)
		}
	}
}

func TestCapacitanceScalingAcceleratesTransients(t *testing.T) {
	mSlow, _, _ := newModel(t)
	mFast, _, _ := newModel(t)
	const accel = 16
	mFast.ScaleCapacitances(1.0 / accel)
	p := make([]float64, mSlow.NumBlocks())
	p[0] = 2.0
	// Advance the fast model by t and the slow model by accel*t: they
	// must land on the same temperatures (linear-system rescaling).
	mSlow.Advance(p, 0.080)
	mFast.Advance(p, 0.080/accel)
	for i := 0; i < mSlow.NumBlocks(); i++ {
		if math.Abs(mSlow.Temp(i)-mFast.Temp(i)) > 0.02 {
			t.Fatalf("block %d: slow %.4f vs fast %.4f", i, mSlow.Temp(i), mFast.Temp(i))
		}
	}
}

func TestWarmStartMatchesSteadyState(t *testing.T) {
	m, _, _ := newModel(t)
	p := make([]float64, m.NumBlocks())
	for i := range p {
		p[i] = 0.5 + 0.1*float64(i%4)
	}
	want := m.SteadyState(p)
	m.WarmStart(p)
	for i := range want {
		if math.Abs(m.Temp(i)-want[i]) > 1e-9 {
			t.Fatalf("block %d warmstart %.6f vs steady %.6f", i, m.Temp(i), want[i])
		}
	}
	// After a warm start, advancing under the same power must not move.
	before := m.Temps(nil)
	m.Advance(p, 1e-3)
	for i := range before {
		if math.Abs(m.Temp(i)-before[i]) > 1e-6 {
			t.Fatalf("block %d drifted from steady state: %v -> %v", i, before[i], m.Temp(i))
		}
	}
}

// TestWarmStartBelow pins the clamp: a steady state under the limit is
// the plain warm start, and one over it has every block's rise over
// ambient scaled so the hottest block starts exactly at the limit.
func TestWarmStartBelow(t *testing.T) {
	m, _, cfg := newModel(t)
	p := make([]float64, m.NumBlocks())
	for i := range p {
		p[i] = 0.5 + 0.1*float64(i%4)
	}
	steady := m.SteadyState(p)
	hottest := 0.0
	for _, temp := range steady {
		hottest = math.Max(hottest, temp)
	}

	m.WarmStartBelow(p, hottest+1)
	for i, want := range steady {
		if m.Temp(i) != want {
			t.Fatalf("under the limit: block %d at %v, want the steady state %v", i, m.Temp(i), want)
		}
	}

	limit := cfg.AmbientK + (hottest-cfg.AmbientK)/2
	m.WarmStartBelow(p, limit)
	for i, want := range steady {
		want = cfg.AmbientK + (want-cfg.AmbientK)/2
		if math.Abs(m.Temp(i)-want) > 1e-9 {
			t.Fatalf("over the limit: block %d at %v, want %v", i, m.Temp(i), want)
		}
	}
}

func TestCoolingDecaysTowardAmbient(t *testing.T) {
	m, _, _ := newModel(t)
	p := make([]float64, m.NumBlocks())
	for i := range p {
		p[i] = 2.0
	}
	m.WarmStart(p)
	hot := m.Temp(0)
	zero := make([]float64, m.NumBlocks())
	m.Advance(zero, 0.010) // 10 ms cooling stall
	cooled := m.Temp(0)
	if cooled >= hot {
		t.Fatalf("no cooling during stall: %.3f -> %.3f", hot, cooled)
	}
	// Block time constants are single-digit ms: 10 ms must remove a
	// substantial fraction of the local (block minus sink) excess.
	sink := m.SinkTemp()
	if (cooled-sink)/(hot-sink) > 0.7 {
		t.Fatalf("10ms stall removed too little local heat: %.3f -> %.3f (sink %.3f)", hot, cooled, sink)
	}
}

func TestTempsAndSetTemps(t *testing.T) {
	m, _, _ := newModel(t)
	ts := m.Temps(nil)
	if len(ts) != m.NumBlocks() {
		t.Fatal("Temps length")
	}
	for i := range ts {
		ts[i] = 340 + float64(i)
	}
	m.SetTemps(ts)
	for i := range ts {
		if m.Temp(i) != ts[i] {
			t.Fatalf("SetTemps did not apply at %d", i)
		}
	}
	// Reuse a destination slice.
	dst := make([]float64, m.NumBlocks())
	if got := m.Temps(dst); &got[0] != &dst[0] {
		t.Fatal("Temps reallocated when dst provided")
	}
}

func TestTempByName(t *testing.T) {
	m, plan, _ := newModel(t)
	ts := m.Temps(nil)
	ts[plan.Index(floorplan.IntQ1)] = 351.5
	m.SetTemps(ts)
	if got := m.TempByName(floorplan.IntQ1); got != 351.5 {
		t.Fatalf("TempByName = %v", got)
	}
}

func TestPanics(t *testing.T) {
	m, _, _ := newModel(t)
	for name, f := range map[string]func(){
		"SetTemps wrong len":    func() { m.SetTemps(make([]float64, 3)) },
		"Advance wrong len":     func() { m.Advance(make([]float64, 3), 1e-3) },
		"SteadyState wrong len": func() { m.SteadyState(make([]float64, 3)) },
		"Scale non-positive":    func() { m.ScaleCapacitances(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAdvanceZeroDurationNoop(t *testing.T) {
	m, _, _ := newModel(t)
	before := m.Temps(nil)
	m.Advance(make([]float64, m.NumBlocks()), 0)
	for i := range before {
		if m.Temp(i) != before[i] {
			t.Fatal("zero-duration advance changed state")
		}
	}
}

func TestStabilityUnderLongSteps(t *testing.T) {
	// A single Advance over many stability limits must subdivide and stay
	// finite/physical.
	m, _, cfg := newModel(t)
	p := make([]float64, m.NumBlocks())
	for i := range p {
		p[i] = 3.0
	}
	m.Advance(p, m.MaxStableStep()*500)
	for i := 0; i < m.NumBlocks(); i++ {
		temp := m.Temp(i)
		if math.IsNaN(temp) || temp < cfg.AmbientK-1 || temp > 500 {
			t.Fatalf("block %d unphysical temp %v", i, temp)
		}
	}
}

func TestVerticalResistanceScalesWithArea(t *testing.T) {
	m, plan, _ := newModel(t)
	small := plan.Index(floorplan.IntQ0)  // shrunk in IQ-constrained plan
	large := plan.Index(floorplan.ICache) // big cache block
	if m.VerticalResistance(small) <= m.VerticalResistance(large) {
		t.Fatal("smaller block should have higher vertical resistance")
	}
}

func TestLateralConductanceSymmetric(t *testing.T) {
	m, plan, _ := newModel(t)
	a, b := plan.Index(floorplan.IntQ0), plan.Index(floorplan.IntQ1)
	if m.LateralConductance(a, b) != m.LateralConductance(b, a) {
		t.Fatal("lateral conductance asymmetric")
	}
	if m.LateralConductance(a, b) <= 0 {
		t.Fatal("adjacent halves have no lateral conductance")
	}
	far := plan.Index(floorplan.ICache)
	if m.LateralConductance(a, far) != 0 {
		t.Fatal("non-adjacent blocks coupled laterally")
	}
}

// TestReciprocity checks a fundamental property of any passive RC network
// with a symmetric conductance matrix: the steady-state temperature rise
// at block i caused by power injected at block j equals the rise at j
// caused by the same power at i.
func TestReciprocity(t *testing.T) {
	m, plan, cfg := newModel(t)
	i := plan.Index(floorplan.IntQ0)
	j := plan.Index(floorplan.ICache)

	p := make([]float64, m.NumBlocks())
	p[i] = 1.0
	rjFromI := m.SteadyState(p)[j] - cfg.AmbientK

	p[i] = 0
	p[j] = 1.0
	riFromJ := m.SteadyState(p)[i] - cfg.AmbientK

	if math.Abs(rjFromI-riFromJ) > 1e-9 {
		t.Fatalf("reciprocity violated: %.9f vs %.9f", rjFromI, riFromJ)
	}
}

// TestSuperposition checks linearity: the response to the sum of two power
// vectors is the sum of the responses (the property the thermal
// acceleration relies on).
func TestSuperposition(t *testing.T) {
	m, plan, cfg := newModel(t)
	a := make([]float64, m.NumBlocks())
	b := make([]float64, m.NumBlocks())
	a[plan.Index(floorplan.IntExec(0))] = 2.0
	b[plan.Index(floorplan.FPReg)] = 1.5

	sa := m.SteadyState(a)
	sb := m.SteadyState(b)
	both := make([]float64, m.NumBlocks())
	for i := range both {
		both[i] = a[i] + b[i]
	}
	sab := m.SteadyState(both)
	for i := range sab {
		want := sa[i] + sb[i] - cfg.AmbientK // ambient counted once
		if math.Abs(sab[i]-want) > 1e-9 {
			t.Fatalf("block %d: superposition %.9f vs %.9f", i, sab[i], want)
		}
	}
}
