package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/trace"
)

// rig builds a manager with direct access to the thermal model so tests
// can script temperature scenarios.
func rig(t *testing.T, mod func(*config.Config)) (*Manager, *thermal.Model, *pipeline.Pipeline, *floorplan.Plan, *config.Config) {
	t.Helper()
	cfg := config.Default()
	if mod != nil {
		mod(cfg)
	}
	plan := floorplan.Build(cfg.Plan)
	meter := power.NewMeter(plan, cfg)
	prof, _ := trace.ByName("eon")
	pipe, err := pipeline.New(cfg, plan, meter, trace.NewGenerator(prof))
	if err != nil {
		t.Fatal(err)
	}
	th := thermal.New(plan, cfg)
	mgr := New(cfg, plan, pipe, th)
	return mgr, th, pipe, plan, cfg
}

// setTemp sets one block's temperature, leaving the rest at the given
// background.
func setTemps(th *thermal.Model, plan *floorplan.Plan, bg float64, hot map[string]float64) {
	ts := make([]float64, plan.NumBlocks())
	for i := range ts {
		ts[i] = bg
	}
	for name, t := range hot {
		ts[plan.Index(name)] = t
	}
	th.SetTemps(ts)
}

func TestNoActionWhenCool(t *testing.T) {
	mgr, th, _, plan, _ := rig(t, nil)
	setTemps(th, plan, 340, nil)
	if stall := mgr.Control(); stall != 0 {
		t.Fatalf("cool chip requested %d stall cycles", stall)
	}
	if mgr.Stalls != 0 || mgr.IntToggles != 0 {
		t.Fatal("spurious events")
	}
}

func TestIQOverheatForcesStall(t *testing.T) {
	// Queue halves cannot be turned off: at threshold the core must take
	// the temporal fallback regardless of technique.
	for _, iq := range []config.IQPolicy{config.IQBase, config.IQToggle} {
		mgr, th, _, plan, cfg := rig(t, func(c *config.Config) { c.Techniques.IQ = iq })
		setTemps(th, plan, 340, map[string]float64{floorplan.IntQ1: cfg.MaxTempK})
		stall := mgr.Control()
		if stall != cfg.CoolingCycles() {
			t.Fatalf("iq=%v: stall %d, want %d", iq, stall, cfg.CoolingCycles())
		}
		if mgr.Stalls != 1 {
			t.Fatalf("stall not counted")
		}
	}
}

func TestToggleFiresOnActiveHotHalf(t *testing.T) {
	mgr, th, pipe, plan, _ := rig(t, func(c *config.Config) { c.Techniques.IQ = config.IQToggle })
	// Make physical half 1 both hotter (by > 0.5 K) and more active.
	q := pipe.IntQueue()
	for id := int32(0); id < 20; id++ {
		q.Dispatch(id)
	}
	for i := 0; i < 50; i++ {
		q.Tick() // generates activity charged mostly to occupied region
	}
	// Manually bias activity: issue from the bottom so the tail moves.
	for id := int32(0); id < 10; id++ {
		q.MarkReady(id)
		q.Issue(id)
		q.Tick()
	}
	setTemps(th, plan, 350, map[string]float64{floorplan.IntQ1: 351.0})
	mode := q.Mode()
	mgr.Control()
	// Whether it fires depends on which half was more active; force the
	// unambiguous case: hot half 1, and half-1 energy strictly higher.
	if q.Mode() == mode {
		// Acceptable only if half 0 accumulated more energy (activity on
		// the cool half suppresses toggling by design).
		e0, e1 := q.EnergyTotals()
		if e1 > e0 {
			t.Fatalf("hot+active half did not trigger toggle (e0=%g e1=%g)", e0, e1)
		}
	}
}

func TestToggleRespectsThreshold(t *testing.T) {
	mgr, th, pipe, plan, _ := rig(t, func(c *config.Config) { c.Techniques.IQ = config.IQToggle })
	setTemps(th, plan, 350, map[string]float64{floorplan.IntQ1: 350.4}) // 0.4 K < 0.5 K
	mgr.Control()
	if pipe.IntQueue().Mode() != 0 || mgr.IntToggles != 0 {
		t.Fatal("toggle fired below threshold")
	}
}

func TestALUFineGrainTurnoffAndResume(t *testing.T) {
	mgr, th, pipe, plan, cfg := rig(t, func(c *config.Config) { c.Techniques.ALU = config.ALUFineGrain })
	setTemps(th, plan, 345, map[string]float64{"IntExec0": cfg.MaxTempK})
	if stall := mgr.Control(); stall != 0 {
		t.Fatal("fine-grain turnoff should avoid the stall")
	}
	if !pipe.IntPool().Busy(0) {
		t.Fatal("hot ALU not marked busy")
	}
	if pipe.IntPool().Busy(1) {
		t.Fatal("cool ALU marked busy")
	}
	if mgr.ALUTurnoffs != 1 {
		t.Fatalf("turnoffs %d", mgr.ALUTurnoffs)
	}

	// Still above resume point: stays off.
	setTemps(th, plan, 345, map[string]float64{"IntExec0": cfg.MaxTempK - cfg.TurnoffHysteresisK/2})
	mgr.Control()
	if !pipe.IntPool().Busy(0) {
		t.Fatal("ALU resumed within hysteresis band")
	}

	// Below resume point: resumes.
	setTemps(th, plan, 345, map[string]float64{"IntExec0": cfg.MaxTempK - 2*cfg.TurnoffHysteresisK})
	mgr.Control()
	if pipe.IntPool().Busy(0) {
		t.Fatal("ALU did not resume after cooling")
	}
	if mgr.ALUTurnoffs != 1 {
		t.Fatal("resume should not count as a turnoff")
	}
}

func TestALUBasePolicyStallsInstead(t *testing.T) {
	mgr, th, _, plan, cfg := rig(t, nil) // ALUBase
	setTemps(th, plan, 345, map[string]float64{"IntExec0": cfg.MaxTempK})
	if stall := mgr.Control(); stall == 0 {
		t.Fatal("base policy must stall on a hot ALU")
	}
}

func TestAllALUsHotForcesStall(t *testing.T) {
	mgr, th, _, plan, cfg := rig(t, func(c *config.Config) { c.Techniques.ALU = config.ALUFineGrain })
	hot := map[string]float64{}
	for u := 0; u < cfg.IntALUs; u++ {
		hot[floorplan.IntExec(u)] = cfg.MaxTempK
	}
	setTemps(th, plan, 345, hot)
	if stall := mgr.Control(); stall == 0 {
		t.Fatal("all-ALUs-hot must fall back to the temporal technique")
	}
}

func TestFPAdderTurnoff(t *testing.T) {
	mgr, th, pipe, plan, cfg := rig(t, func(c *config.Config) { c.Techniques.ALU = config.ALUFineGrain })
	setTemps(th, plan, 345, map[string]float64{floorplan.FPAdd(2): cfg.MaxTempK})
	if stall := mgr.Control(); stall != 0 {
		t.Fatal("hot FP adder should be tolerated")
	}
	if !pipe.FPAddPool().Busy(2) {
		t.Fatal("hot FP adder not busy")
	}
	_ = mgr
}

func TestFPMulToleratedWhileCooling(t *testing.T) {
	mgr, th, pipe, plan, cfg := rig(t, func(c *config.Config) { c.Techniques.ALU = config.ALUFineGrain })
	setTemps(th, plan, 345, map[string]float64{floorplan.FPMul: cfg.MaxTempK})
	if stall := mgr.Control(); stall != 0 {
		t.Fatal("single FP multiplier should cool without a global stall")
	}
	if !pipe.FPMulPool().Busy(0) {
		t.Fatal("hot FP multiplier not busy")
	}
}

func TestRFTurnoffMasksMappedALUs(t *testing.T) {
	mgr, th, pipe, plan, cfg := rig(t, func(c *config.Config) {
		c.Techniques.RFTurnoff = true
		c.Techniques.RFMap = config.MapPriority
	})
	thr := pipe.RegFile().TurnoffThreshold(cfg.MaxTempK, cfg.RFWriteMarginK)
	setTemps(th, plan, 345, map[string]float64{floorplan.IntReg0: thr})
	if stall := mgr.Control(); stall != 0 {
		t.Fatal("copy turnoff should avoid the stall")
	}
	rf := pipe.RegFile()
	if !rf.Off(0) || rf.Off(1) {
		t.Fatal("copy 0 should be off, copy 1 on")
	}
	// Priority mapping: ALUs 0-2 wired to copy 0 must be busy.
	for u := 0; u < 3; u++ {
		if !pipe.IntPool().Busy(u) {
			t.Fatalf("ALU %d of off copy not busy", u)
		}
	}
	for u := 3; u < 6; u++ {
		if pipe.IntPool().Busy(u) {
			t.Fatalf("ALU %d of live copy busy", u)
		}
	}
	if mgr.RFCopyTurnoffs != 1 {
		t.Fatalf("rf turnoffs %d", mgr.RFCopyTurnoffs)
	}

	// Cooling below resume releases the copy and its ALUs.
	setTemps(th, plan, 345, nil)
	mgr.Control()
	if rf.Off(0) || pipe.IntPool().Busy(0) {
		t.Fatal("copy or ALUs did not resume")
	}
}

func TestLastRFCopyNeverTurnedOff(t *testing.T) {
	mgr, th, pipe, plan, cfg := rig(t, func(c *config.Config) { c.Techniques.RFTurnoff = true })
	// Both copies at the CRITICAL threshold: one may turn off; the other
	// must stay readable, leaving a hot untolerated block.
	setTemps(th, plan, 345, map[string]float64{
		floorplan.IntReg0: cfg.MaxTempK,
		floorplan.IntReg1: cfg.MaxTempK,
	})
	stall := mgr.Control()
	rf := pipe.RegFile()
	off := 0
	for c := 0; c < rf.Copies(); c++ {
		if rf.Off(c) {
			off++
		}
	}
	if off != 1 {
		t.Fatalf("%d copies off, want exactly 1 (never the last)", off)
	}
	// One copy is at threshold and NOT off: that forces the stall.
	if stall == 0 {
		t.Fatal("both copies hot must stall")
	}
}

func TestRFBaseStallsOnHotCopy(t *testing.T) {
	mgr, th, _, plan, cfg := rig(t, nil) // RFTurnoff false
	setTemps(th, plan, 345, map[string]float64{floorplan.IntReg1: cfg.MaxTempK})
	if stall := mgr.Control(); stall == 0 {
		t.Fatal("hot RF copy without turnoff must stall")
	}
}

func TestFPRegAlwaysStalls(t *testing.T) {
	// The FP register file has no copies: no technique can tolerate it.
	mgr, th, _, plan, cfg := rig(t, func(c *config.Config) {
		c.Techniques.IQ = config.IQToggle
		c.Techniques.ALU = config.ALUFineGrain
		c.Techniques.RFTurnoff = true
	})
	setTemps(th, plan, 345, map[string]float64{floorplan.FPReg: cfg.MaxTempK})
	if stall := mgr.Control(); stall == 0 {
		t.Fatal("hot FP register file must stall")
	}
}

func TestHotAndStallAttribution(t *testing.T) {
	mgr, th, _, plan, cfg := rig(t, func(c *config.Config) { c.Techniques.ALU = config.ALUFineGrain })
	setTemps(th, plan, 345, map[string]float64{"IntExec0": cfg.MaxTempK})
	mgr.Control()
	idx := plan.Index("IntExec0")
	if mgr.HotCounts[idx] != 1 {
		t.Fatalf("hot count %d", mgr.HotCounts[idx])
	}
	if mgr.StallCauses[idx] != 0 {
		t.Fatal("tolerated block recorded as stall cause")
	}
	setTemps(th, plan, 345, map[string]float64{floorplan.IntQ0: cfg.MaxTempK})
	mgr.Control()
	qidx := plan.Index(floorplan.IntQ0)
	if mgr.StallCauses[qidx] != 1 {
		t.Fatal("stall cause not recorded")
	}
	if mgr.HotSamples != 2 || mgr.Samples != 2 {
		t.Fatalf("samples=%d hot=%d", mgr.Samples, mgr.HotSamples)
	}
}

func TestTempDiff(t *testing.T) {
	mgr, th, pipe, plan, _ := rig(t, nil)
	setTemps(th, plan, 350, map[string]float64{floorplan.IntQ1: 352})
	if d := mgr.TempDiff(); d != 2 {
		t.Fatalf("TempDiff %v, want 2 (tail-head, mode 0)", d)
	}
	pipe.IntQueue().Toggle()
	if d := mgr.TempDiff(); d != -2 {
		t.Fatalf("TempDiff %v after toggle, want -2", d)
	}
}

func TestSensorNoiseDoesNotBreakControl(t *testing.T) {
	mgr, th, _, plan, cfg := rig(t, func(c *config.Config) {
		c.SensorNoiseK = 1.5
		c.Techniques.ALU = config.ALUFineGrain
	})
	// Well below threshold: even with ±1.5 K noise, no block can appear
	// hot (threshold is 358, background 345).
	setTemps(th, plan, 345, nil)
	for i := 0; i < 200; i++ {
		if stall := mgr.Control(); stall != 0 {
			t.Fatal("noise alone triggered a stall 13 K below threshold")
		}
	}
	// Right at threshold: noisy sensing must trigger at least sometimes.
	setTemps(th, plan, 345, map[string]float64{"IntExec0": cfg.MaxTempK})
	turnedOff := false
	for i := 0; i < 50; i++ {
		mgr.Control()
		if mgr.ALUTurnoffs > 0 {
			turnedOff = true
			break
		}
	}
	if !turnedOff {
		t.Fatal("noisy sensor never detected an at-threshold block")
	}
	// Physical temperatures are untouched by sensing noise.
	if th.TempByName("IntExec0") != cfg.MaxTempK {
		t.Fatal("sensor noise leaked into the thermal model")
	}
}

func TestSensorNoiseDeterministic(t *testing.T) {
	run := func() uint64 {
		mgr, th, _, plan, cfg := rig(t, func(c *config.Config) {
			c.SensorNoiseK = 1.0
			c.Techniques.ALU = config.ALUFineGrain
		})
		setTemps(th, plan, 345, map[string]float64{"IntExec0": cfg.MaxTempK - 0.5})
		for i := 0; i < 100; i++ {
			mgr.Control()
		}
		return mgr.ALUTurnoffs
	}
	if run() != run() {
		t.Fatal("sensor noise not deterministic across identical runs")
	}
}
