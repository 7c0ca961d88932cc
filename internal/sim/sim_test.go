package sim

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/floorplan"
	"repro/internal/trace"
)

func quickSim(t *testing.T, bench string, mod func(*config.Config)) *Simulator {
	t.Helper()
	cfg := config.Default()
	if mod != nil {
		mod(cfg)
	}
	s, err := NewByName(cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	s.WarmupInstructions = 50_000
	return s
}

func TestRunCyclesProducesResult(t *testing.T) {
	s := quickSim(t, "eon", nil)
	r := s.RunCycles(120_000)
	if r.Cycles < 120_000 {
		t.Fatalf("ran %d cycles", r.Cycles)
	}
	if r.Committed == 0 || r.IPC <= 0 {
		t.Fatalf("no work done: %+v", r)
	}
	if r.Benchmark != "eon" || r.Plan != config.PlanIQConstrained {
		t.Fatal("result metadata wrong")
	}
	if r.AvgChipPowerW <= 0 {
		t.Fatal("no chip power")
	}
}

func TestTemperaturesPhysical(t *testing.T) {
	s := quickSim(t, "eon", nil)
	r := s.RunCycles(200_000)
	cfg := config.Default()
	for _, b := range []string{floorplan.IntQ0, floorplan.IntQ1, floorplan.ICache, "IntExec0"} {
		avg, okA := r.AvgTemp(b)
		peak, okP := r.PeakTemp(b)
		if !okA || !okP {
			t.Fatalf("%s missing from result", b)
		}
		if avg < cfg.AmbientK || avg > cfg.MaxTempK+5 {
			t.Errorf("%s avg temp %v implausible", b, avg)
		}
		if peak < avg-0.001 {
			t.Errorf("%s peak %v below avg %v", b, peak, avg)
		}
	}
	name, temp := r.HottestBlock()
	if name == "" || temp <= cfg.AmbientK {
		t.Fatal("hottest block bogus")
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	if _, err := NewByName(config.Default(), "quake"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*config.Config)
	}{
		{"IssueWidth 0", func(c *config.Config) { c.IssueWidth = 0 }},
		// Shapes Validate accepts but no floorplan has blocks for.
		{"IntALUs 8", func(c *config.Config) { c.IntALUs = 8 }},
		{"FPAdders 5", func(c *config.Config) { c.FPAdders = 5 }},
		{"IntRFCopies 3", func(c *config.Config) { c.IntRFCopies = 3 }},
	} {
		cfg := config.Default()
		c.edit(cfg)
		if _, err := NewByName(cfg, "eon"); err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() *Result {
		s := quickSim(t, "crafty", nil)
		return s.RunCycles(150_000)
	}
	a, b := run(), run()
	if a.Committed != b.Committed || a.Stalls != b.Stalls || a.IPC != b.IPC {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
	ta, _ := a.AvgTemp(floorplan.IntQ1)
	tb, _ := b.AvgTemp(floorplan.IntQ1)
	if ta != tb {
		t.Fatal("temperatures differ between identical runs")
	}
}

func TestHotRunStallsAndCoolRunDoesNot(t *testing.T) {
	if testing.Short() {
		t.Skip("thermal dynamics run")
	}
	// art never overheats the issue queue (paper Table 4); eon does.
	hot := quickSim(t, "eon", nil)
	hot.WarmupInstructions = 3_000_000
	rHot := hot.RunCycles(4_000_000)
	if rHot.Stalls == 0 {
		t.Error("eon should overheat the IQ-constrained floorplan")
	}

	cool := quickSim(t, "art", nil)
	cool.WarmupInstructions = 3_000_000
	rCool := cool.RunCycles(1_000_000)
	if rCool.Stalls != 0 {
		t.Error("art should never overheat")
	}
}

func TestTechniquesAppearInResult(t *testing.T) {
	s := quickSim(t, "eon", func(c *config.Config) {
		c.Techniques.IQ = config.IQToggle
		c.Techniques.ALU = config.ALUFineGrain
	})
	r := s.RunCycles(100_000)
	if r.Techniques.IQ != config.IQToggle || r.Techniques.ALU != config.ALUFineGrain {
		t.Fatal("techniques not recorded")
	}
	if !strings.Contains(r.String(), "eon") {
		t.Fatal("String() missing benchmark")
	}
}

func TestRFTurnoffsPerCopyExposed(t *testing.T) {
	s := quickSim(t, "eon", func(c *config.Config) {
		c.Plan = config.PlanRFConstrained
		c.Techniques.RFTurnoff = true
	})
	r := s.RunCycles(100_000)
	if len(r.RFTurnoffsPerCopy) != 2 {
		t.Fatalf("per-copy turnoffs %v", r.RFTurnoffsPerCopy)
	}
}

func TestStallAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("thermal dynamics run")
	}
	s := quickSim(t, "perlbmk", nil)
	s.WarmupInstructions = 3_000_000
	r := s.RunCycles(3_000_000)
	if r.ActiveCycles+r.StallCycles != r.Cycles {
		t.Fatalf("cycle accounting: %d + %d != %d", r.ActiveCycles, r.StallCycles, r.Cycles)
	}
	if r.Stalls > 0 && r.StallCycles == 0 {
		t.Fatal("stalls without stall cycles")
	}
	wantPerStall := int64(config.Default().CoolingCycles())
	if r.Stalls > 0 && r.StallCycles != int64(r.Stalls)*wantPerStall {
		t.Fatalf("stall cycles %d for %d stalls (want %d each)", r.StallCycles, r.Stalls, wantPerStall)
	}
}

func TestDVFSReplacesStalls(t *testing.T) {
	if testing.Short() {
		t.Skip("thermal dynamics run")
	}
	stopgo := quickSim(t, "perlbmk", nil)
	stopgo.WarmupInstructions = 3_000_000
	rs := stopgo.RunCycles(3_000_000)

	dvfs := quickSim(t, "perlbmk", func(c *config.Config) {
		c.Techniques.Temporal = config.TemporalDVFS
	})
	dvfs.WarmupInstructions = 3_000_000
	rd := dvfs.RunCycles(3_000_000)

	if rs.Stalls == 0 {
		t.Skip("calibration did not stall perlbmk in this window")
	}
	if rd.Stalls != 0 {
		t.Fatalf("DVFS run still took %d full stalls", rd.Stalls)
	}
	if rd.DVFSEngagements == 0 || rd.SlowCycles == 0 {
		t.Fatalf("DVFS never engaged: %d engagements, %d slow cycles", rd.DVFSEngagements, rd.SlowCycles)
	}
	// Peak temperature must stay controlled under DVFS.
	if peak, _ := rd.PeakTemp(floorplan.IntQ1); peak > config.Default().MaxTempK+2 {
		t.Fatalf("DVFS failed to control temperature: peak %.1f", peak)
	}
}

func TestUnknownBlockReportsMissing(t *testing.T) {
	s := quickSim(t, "eon", nil)
	r := s.RunCycles(50_000)
	if _, ok := r.AvgTemp("Nonexistent"); ok {
		t.Error("AvgTemp claimed to know an unknown block")
	}
	if _, ok := r.PeakTemp("Nonexistent"); ok {
		t.Error("PeakTemp claimed to know an unknown block")
	}
	if v, ok := r.AvgTemp(floorplan.IntQ0); !ok || v <= 0 {
		t.Errorf("known block missing: %v %v", v, ok)
	}
}

func TestAllPlansRun(t *testing.T) {
	for _, plan := range []config.FloorplanVariant{
		config.PlanIQConstrained, config.PlanALUConstrained, config.PlanRFConstrained,
	} {
		s := quickSim(t, "gzip", func(c *config.Config) { c.Plan = plan })
		r := s.RunCycles(80_000)
		if r.IPC <= 0 {
			t.Errorf("plan %v: no progress", plan)
		}
	}
}

func TestProfileValidationPropagates(t *testing.T) {
	prof, _ := trace.ByName("eon")
	prof.DepDist = 0
	if _, err := New(config.Default(), prof); err == nil {
		t.Fatal("invalid profile accepted")
	}
}
