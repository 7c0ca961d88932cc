package sim

import (
	"reflect"
	"testing"

	"repro/internal/config"
)

func seamSim(t *testing.T) *Simulator {
	t.Helper()
	cfg := config.Default()
	s, err := NewByName(cfg, "eon")
	if err != nil {
		t.Fatal(err)
	}
	s.WarmupInstructions = 10_000
	return s
}

// TestSeamIntervalAccounting: an active interval advances the wall clock
// by one sensor interval and commits instructions; a stalled interval
// advances the clock without touching the pipeline.
func TestSeamIntervalAccounting(t *testing.T) {
	s := seamSim(t)
	s.WarmupArch()
	interval := int64(s.Cfg.SensorIntervalCycles)

	pow := s.StepInterval(false)
	if len(pow) != s.Plan.NumBlocks() {
		t.Fatalf("power vector has %d entries for %d blocks", len(pow), s.Plan.NumBlocks())
	}
	if s.globalCycles != interval {
		t.Fatalf("cycles %d after one interval, want %d", s.globalCycles, interval)
	}
	committed := s.Pipe.Committed
	if committed == 0 {
		t.Fatal("active interval committed nothing")
	}
	active := 0.0
	for _, p := range pow {
		active += p
	}

	pow = s.StepInterval(true)
	if s.globalCycles != 2*interval {
		t.Fatalf("cycles %d after stalled interval, want %d", s.globalCycles, 2*interval)
	}
	if s.Pipe.Committed != committed {
		t.Fatal("stalled interval advanced the pipeline")
	}
	stall := 0.0
	for _, p := range pow {
		stall += p
	}
	if stall <= 0 || stall >= active {
		t.Fatalf("stall power %.3f W not in (0, active %.3f W)", stall, active)
	}

	r := s.result()
	if r.Cycles != 2*interval || r.StallCycles != interval || r.ActiveCycles != interval {
		t.Fatalf("snapshot cycles %d/%d/%d, want %d/%d/%d",
			r.Cycles, r.ActiveCycles, r.StallCycles, 2*interval, interval, interval)
	}
	if r.Committed != committed {
		t.Fatalf("snapshot committed %d, want %d", r.Committed, committed)
	}
}

// TestSeamSenseExternal: the DTM reads exactly the temperatures the
// external field provides — cool temps demand no stall, temps at the
// critical threshold demand a full cooling stall, and every sample feeds
// the result's per-block average/peak statistics.
func TestSeamSenseExternal(t *testing.T) {
	s := seamSim(t)
	s.WarmupArch()
	s.StepInterval(false)

	cool := make([]float64, s.Plan.NumBlocks())
	for i := range cool {
		cool[i] = s.Cfg.AmbientK
	}
	if stall := s.SenseExternal(cool); stall != 0 {
		t.Fatalf("ambient temperatures demanded a %d-cycle stall", stall)
	}

	hot := make([]float64, s.Plan.NumBlocks())
	for i := range hot {
		hot[i] = s.Cfg.AmbientK
	}
	hotIdx := 3
	hot[hotIdx] = s.Cfg.MaxTempK
	stalls := s.Mgr.Stalls
	if stall := s.SenseExternal(hot); stall != s.Cfg.CoolingCycles() {
		t.Fatalf("critical temperature demanded %d cycles, want %d", stall, s.Cfg.CoolingCycles())
	}
	if s.Mgr.Stalls != stalls+1 {
		t.Fatal("overheat did not count a stall event")
	}

	r := s.result()
	name := s.Plan.Blocks[hotIdx].Name
	peak, ok := r.PeakTemp(name)
	if !ok || peak != s.Cfg.MaxTempK {
		t.Fatalf("peak temp of %s = %.2f (%v), want %.2f", name, peak, ok, s.Cfg.MaxTempK)
	}
	avg, _ := r.AvgTemp(name)
	want := (s.Cfg.AmbientK + s.Cfg.MaxTempK) / 2
	if avg != want {
		t.Fatalf("avg temp of %s = %.4f, want %.4f", name, avg, want)
	}
}

// TestSeamDeterministic: two identically seeded machines driven through
// the same seam sequence stay bit-identical.
func TestSeamDeterministic(t *testing.T) {
	a, b := seamSim(t), seamSim(t)
	a.WarmupArch()
	b.WarmupArch()
	for i := 0; i < 5; i++ {
		pa := a.StepInterval(i%4 == 3)
		pb := b.StepInterval(i%4 == 3)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("interval %d block %d: %v vs %v", i, j, pa[j], pb[j])
			}
		}
	}
	ra, rb := a.result(), b.result()
	if ra.Committed != rb.Committed || ra.Cycles != rb.Cycles || ra.IPC != rb.IPC {
		t.Fatalf("seam runs diverged: %+v vs %+v", ra, rb)
	}
}

// TestShareWarmupBitIdentical: a simulator that installs a warm state
// built by another simulator of the same profile — here on a different
// floorplan with different techniques — runs bit-identical to one that
// replays its own warmup, and lets go of the state once installed.
func TestShareWarmupBitIdentical(t *testing.T) {
	mk := func(mod func(*config.Config)) *Simulator {
		cfg := config.Default()
		cfg.Plan = config.PlanALUConstrained
		cfg.Techniques.ALU = config.ALUFineGrain
		if mod != nil {
			mod(cfg)
		}
		s, err := NewByName(cfg, "eon")
		if err != nil {
			t.Fatal(err)
		}
		s.WarmupInstructions = 40_000
		return s
	}
	donor := mk(func(cfg *config.Config) {
		cfg.Plan = config.PlanRFConstrained
		cfg.Techniques = config.Techniques{RFMap: config.MapBalanced, RFTurnoff: true}
	})
	shared := mk(nil)
	shared.ShareWarmup(donor.WarmState())
	got := shared.RunCycles(80_000)
	if shared.warm != nil {
		t.Error("simulator kept the shared warm state after installing it")
	}
	if want := mk(nil).RunCycles(80_000); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared-warmup run diverged:\n got %v\nwant %v", got, want)
	}
}

func TestShareWarmupLengthMismatchPanics(t *testing.T) {
	s := seamSim(t)
	other := seamSim(t)
	other.WarmupInstructions++
	s.ShareWarmup(other.WarmState())
	defer func() {
		if recover() == nil {
			t.Error("warm state of the wrong length installed without a panic")
		}
	}()
	s.WarmupArch()
}
