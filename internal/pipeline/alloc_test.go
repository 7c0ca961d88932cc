package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// TestCycleDoesNotAllocate proves the hot loop is allocation-free in
// steady state: every per-event energy deposit is a stats-bus counter
// increment, and the scratch structures (grant buffer, completion ring
// buckets, the committed-memory image's stream region, store sets) have
// all reached their working-set capacity after a long drive. Only the
// drive length makes this hold — a cold pipeline still grows those
// buffers. The image's hot and warm regions are sized in New.
func TestCycleDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("long steady-state drive")
	}
	cfg := config.Default()
	prof, _ := trace.ByName("eon")
	p, _ := newPipe(cfg, prof)
	p.Warmup(200_000)
	for i := 0; i < 300_000; i++ {
		p.Cycle()
	}
	if avg := testing.AllocsPerRun(2000, p.Cycle); avg != 0 {
		t.Fatalf("Cycle allocates %.3f times per call in steady state", avg)
	}
}
