package pipeline

import (
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// counters is the warm-state-sensitive progress of a pipeline: what it
// fetched and committed, and every cache and predictor counter.
type counters struct {
	fetched, committed   uint64
	l1iAcc, l1iMiss      uint64
	l1dAcc, l1dMiss      uint64
	l2Acc, l2Miss        uint64
	lookups, mispredicts uint64
}

func countersOf(p *Pipeline) counters {
	m, bp := p.Mem(), p.Bpred()
	return counters{
		p.Fetched, p.Committed,
		m.L1I.Accesses, m.L1I.Misses,
		m.L1D.Accesses, m.L1D.Misses,
		m.L2.Accesses, m.L2.Misses,
		bp.Lookups, bp.Mispredict,
	}
}

// TestLoadWarmMatchesWarmup: a pipeline that loads NewWarmState(cfg,
// prof, n) and one that runs Warmup(n) are the same machine. Stepped in
// lockstep, they fetch, commit, hit, miss and mispredict identically on
// every cycle. A cold pipeline diverges from them, so the comparison is
// not vacuous.
func TestLoadWarmMatchesWarmup(t *testing.T) {
	const warmup, cycles = 300_000, 60_000
	for _, name := range []string{"eon", "mesa", "mcf"} {
		prof, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Default()
		own, _ := newPipe(cfg, prof)
		own.Warmup(warmup)
		loaded, _ := newPipe(cfg, prof)
		loaded.LoadWarm(NewWarmState(cfg, prof, warmup))
		cold, _ := newPipe(cfg, prof)
		coldDiffers := false
		for c := 1; c <= cycles; c++ {
			own.Cycle()
			loaded.Cycle()
			cold.Cycle()
			want, got := countersOf(own), countersOf(loaded)
			if got != want {
				t.Fatalf("%s cycle %d: loaded %+v, warmed %+v", name, c, got, want)
			}
			coldDiffers = coldDiffers || countersOf(cold) != want
		}
		if !coldDiffers {
			t.Errorf("%s: a cold pipeline matched the warmed one; the warm state is not exercised", name)
		}
		if got := countersOf(loaded); got.committed == 0 || got.l2Acc == 0 || got.lookups == 0 {
			t.Errorf("%s: vacuous comparison, counters %+v", name, got)
		}
	}
}

// TestWarmStateConcurrentLoad: one WarmState loaded by many pipelines at
// once, as a matrix's workers load it, is only read — the race detector
// holds it to that — and every loader ends up with the self-warmed state.
func TestWarmStateConcurrentLoad(t *testing.T) {
	const warmup, cycles, loaders = 50_000, 5_000, 8
	prof, _ := trace.ByName("gzip")
	cfg := config.Default()
	ref, _ := newPipe(cfg, prof)
	ref.Warmup(warmup)
	for c := 0; c < cycles; c++ {
		ref.Cycle()
	}
	want := countersOf(ref)

	ws := NewWarmState(cfg, prof, warmup)
	got := make([]counters, loaders)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _ := newPipe(config.Default(), prof)
			p.LoadWarm(ws)
			for c := 0; c < cycles; c++ {
				p.Cycle()
			}
			got[i] = countersOf(p)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("loader %d: %+v, want %+v", i, g, want)
		}
	}
}

func TestLoadWarmMismatchPanics(t *testing.T) {
	eon, _ := trace.ByName("eon")
	gzip, _ := trace.ByName("gzip")
	reseeded := eon
	reseeded.Seed++
	smallL2 := config.Default()
	smallL2.L2SizeKB /= 2
	for name, ws := range map[string]*WarmState{
		"profile":  NewWarmState(config.Default(), gzip, 1_000),
		"seed":     NewWarmState(config.Default(), reseeded, 1_000),
		"geometry": NewWarmState(smallL2, eon, 1_000),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			p, _ := newPipe(config.Default(), eon)
			p.LoadWarm(ws)
		}()
	}
}
