package bpred

import (
	"testing"

	"repro/internal/rng"
)

func TestAlwaysTakenLearned(t *testing.T) {
	p := Default()
	const pc = 0x1000
	// History must saturate to all-taken before the final-index counter
	// trains, so run well past the history length.
	for i := 0; i < 32; i++ {
		p.Predict(pc)
		p.Update(pc, true, 0x2000)
	}
	taken, target, valid := p.Predict(pc)
	if !taken {
		t.Fatal("always-taken branch predicted not-taken after training")
	}
	if !valid || target != 0x2000 {
		t.Fatalf("BTB target %#x valid=%v", target, valid)
	}
}

func TestAlwaysNotTakenLearned(t *testing.T) {
	p := Default()
	const pc = 0x1004
	for i := 0; i < 8; i++ {
		p.Update(pc, false, 0)
	}
	if taken, _, _ := p.Predict(pc); taken {
		t.Fatal("never-taken branch predicted taken")
	}
}

func TestAlternatingPatternLearnedViaHistory(t *testing.T) {
	// gshare with global history should learn a strict T/NT alternation
	// almost perfectly after warmup.
	p := Default()
	const pc = 0x4000
	miss := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		p.Predict(pc)
		if p.Update(pc, taken, 0x5000) && i > 200 {
			miss++
		}
	}
	if miss > 20 {
		t.Fatalf("alternating pattern mispredicted %d times after warmup", miss)
	}
}

func TestRandomBranchesMispredictOften(t *testing.T) {
	p := Default()
	r := rng.New(1)
	miss := 0
	const n = 20000
	for i := 0; i < n; i++ {
		pc := uint64(0x100 + (i%64)*4)
		taken := r.Bool(0.5)
		p.Predict(pc)
		if p.Update(pc, taken, 0x8000) {
			miss++
		}
	}
	rate := float64(miss) / n
	if rate < 0.3 {
		t.Fatalf("random branches mispredicted only %.2f; predictor is cheating", rate)
	}
}

func TestBiasedBranchesPredictWell(t *testing.T) {
	p := Default()
	r := rng.New(2)
	miss := 0
	const n = 20000
	for i := 0; i < n; i++ {
		pc := uint64(0x100 + (i%16)*4)
		taken := r.Bool(0.95)
		p.Predict(pc)
		if p.Update(pc, taken, 0x8000) {
			miss++
		}
	}
	rate := float64(miss) / n
	if rate > 0.15 {
		t.Fatalf("95%%-biased branches mispredicted at %.2f", rate)
	}
}

func TestMispredictRateAccounting(t *testing.T) {
	p := Default()
	p.Predict(0x10)
	p.Update(0x10, true, 0x20) // cold: counter says not-taken -> miss
	if p.Lookups != 1 || p.Mispredict != 1 {
		t.Fatalf("lookups=%d mispredicts=%d", p.Lookups, p.Mispredict)
	}
	if p.MispredictRate() != 1.0 {
		t.Fatalf("rate %v", p.MispredictRate())
	}
}

func TestTargetChangeCausesMispredict(t *testing.T) {
	p := Default()
	const pc = 0x40
	for i := 0; i < 4; i++ {
		p.Update(pc, true, 0x100)
	}
	if !p.Update(pc, true, 0x200) {
		t.Fatal("target change not flagged as mispredict")
	}
}

func TestResetClearsState(t *testing.T) {
	p := Default()
	for i := 0; i < 10; i++ {
		p.Predict(0x10)
		p.Update(0x10, true, 0x20)
	}
	p.Reset()
	if p.Lookups != 0 || p.Mispredict != 0 {
		t.Fatal("stats not cleared")
	}
	if taken, _, valid := p.Predict(0x10); taken || valid {
		t.Fatal("predictor state survived Reset")
	}
}

func TestNewPanicsOnSillySizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, ...) did not panic")
		}
	}()
	New(0, 4)
}

func TestZeroLookupsRate(t *testing.T) {
	if Default().MispredictRate() != 0 {
		t.Fatal("rate on fresh predictor should be 0")
	}
}

// TestCopyFromReplaysIdentically: after CopyFrom, the copy makes the same
// predictions and mispredictions as its source on the same branch stream.
func TestCopyFromReplaysIdentically(t *testing.T) {
	r := rng.New(3)
	branch := func() (pc uint64, taken bool, target uint64) {
		pc = uint64(0x1000 + r.Intn(512)*4)
		return pc, r.Bool(0.7), pc + uint64(r.Intn(4))*64
	}
	src := Default()
	for i := 0; i < 20000; i++ {
		pc, taken, target := branch()
		src.Predict(pc)
		src.Update(pc, taken, target)
	}
	dst := Default()
	dst.Update(0x1000, true, 0x4000) // state the copy must overwrite
	dst.CopyFrom(src)
	for i := 0; i < 20000; i++ {
		pc, taken, target := branch()
		st, stg, sv := src.Predict(pc)
		dt, dtg, dv := dst.Predict(pc)
		if st != dt || stg != dtg || sv != dv {
			t.Fatalf("branch %d at %#x: source predicts %v/%#x/%v, copy %v/%#x/%v", i, pc, st, stg, sv, dt, dtg, dv)
		}
		if sm, dm := src.Update(pc, taken, target), dst.Update(pc, taken, target); sm != dm {
			t.Fatalf("branch %d at %#x: source mispredict=%v, copy %v", i, pc, sm, dm)
		}
	}
	if dst.Lookups != src.Lookups || dst.Mispredict != src.Mispredict {
		t.Fatalf("counters %d/%d, want %d/%d", dst.Lookups, dst.Mispredict, src.Lookups, src.Mispredict)
	}
}

func TestCopyFromSizeMismatchPanics(t *testing.T) {
	for name, src := range map[string]*Predictor{"pht": New(12, 12), "btb": New(13, 11)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s size mismatch did not panic", name)
				}
			}()
			Default().CopyFrom(src)
		}()
	}
}
