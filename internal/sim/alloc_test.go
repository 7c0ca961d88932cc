package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestIntervalAllocBudget locks the steady-state heap traffic of a full
// sensor interval (pipeline cycles + meter drain + thermal step) to zero.
// The hot loop's data structures — completion rings, wakeup lists, the
// committed-memory image's stream region — are all pre-sized or
// amortized; a regression that reintroduces per-interval allocation (as
// the sparse memory map once did, ~6 KB per interval) fails here long
// before it is visible on a profile.
func TestIntervalAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a long warmup to reach steady state")
	}
	cfg := config.Default()
	s, err := sim.NewByName(cfg, "eon")
	if err != nil {
		t.Fatal(err)
	}
	s.Pipe.Warmup(200_000)
	interval := cfg.SensorIntervalCycles
	dt := float64(interval) * cfg.ThermalSecondsPerCycle()
	pow := make([]float64, s.Plan.NumBlocks())

	// Drive past the growth phase (completion rings, the committed-memory
	// image's stream region) so the measured region is steady state,
	// mirroring BenchmarkSimInterval.
	for c := 0; c < 600_000; c++ {
		s.Pipe.Cycle()
	}
	s.Th.Advance(s.Meter.Drain(600_000, 0, pow), dt)

	const intervals = 20
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < intervals; i++ {
		for c := 0; c < interval; c++ {
			s.Pipe.Cycle()
		}
		s.Th.Advance(s.Meter.Drain(interval, 0, pow), dt)
	}
	runtime.ReadMemStats(&after)

	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	// The stream region still grows by an append when the trace first
	// touches a new high-water address, so allow a handful of amortized
	// growth events but nothing per-interval.
	const mallocBudget = 8
	if mallocs > mallocBudget {
		t.Errorf("steady-state intervals allocated %d times (%d bytes) over %d intervals; budget %d allocations",
			mallocs, bytes, intervals, mallocBudget)
	}
}

// TestColdCellAllocBudget bounds the heap traffic of a short run on a
// freshly built simulator, the shape of a service cell: a 5k-instruction
// warmup and 40k cycles. The pipeline sizes the committed-memory image's
// hot and warm regions for the profile's working sets when it is built,
// so the run grows only the stream region and the scratch rings. Growing
// the working sets from empty instead copies them on every growth step,
// 2.5–4 MB per run; mgrid and swim, heavy in stores and warm-set
// traffic, copy the most.
func TestColdCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs two simulators")
	}
	const budget = 512 << 10
	for _, bench := range []string{"mgrid", "swim"} {
		s, err := sim.NewByName(config.Default(), bench)
		if err != nil {
			t.Fatal(err)
		}
		s.WarmupInstructions = 5_000
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.RunCycles(40_000)
		runtime.ReadMemStats(&after)
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > budget {
			t.Errorf("%s: RunCycles(40_000) after a 5k warmup allocated %d bytes in %d allocations; budget %d bytes",
				bench, bytes, after.Mallocs-before.Mallocs, budget)
		}
	}
}
