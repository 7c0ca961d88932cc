package pipeline

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

// Architectural warmup. The state it leaves — cache contents and LRU
// order, predictor counters, history and BTB — depends only on the
// profile (seed included), the warmup length and the cache and predictor
// geometry. Pipelines that differ only in back-end policy or floorplan
// therefore warm to the same state, which WarmState captures once for
// LoadWarm to copy into each of them.

// newHierarchy builds the Table 2 memory system at cfg's geometry.
func newHierarchy(cfg *config.Config) *cache.Hierarchy {
	return cache.NewHierarchy(cfg.L1SizeKB, cfg.L1Assoc, cfg.L1LineB, cfg.L1Latency,
		cfg.L2SizeKB, cfg.L2Assoc, cfg.L2Latency, cfg.MemLatency)
}

// lineShift is log2 of cfg's cache line size (the cache guarantees a
// power of two).
func lineShift(cfg *config.Config) uint {
	return uint(bits.TrailingZeros64(uint64(cfg.L1LineB)))
}

// Warmup primes the caches and branch predictor with the first n
// instructions of the profile's stream, architecturally only (no cycles,
// no energy), mirroring the paper's L2 warmup during SimPoint
// fast-forward. It uses a fresh generator so the measured run still begins
// at instruction zero.
func (p *Pipeline) Warmup(n int) {
	warm(p.mem, p.bp, p.gen.Profile(), n, p.lineShift)
}

// warm feeds the first n instructions of prof's stream to mem and bp —
// one instruction-cache access per fetched line, data accesses outside
// the streaming region, every branch predicted and trained — then clears
// their statistics.
func warm(mem *cache.Hierarchy, bp *bpred.Predictor, prof trace.Profile, n int, lineShift uint) {
	g := trace.NewGenerator(prof)
	line := ^uint64(0)
	for i := 0; i < n; i++ {
		in := g.Next()
		if l := in.PC >> lineShift; l != line {
			line = l
			mem.Inst(in.PC)
		}
		switch {
		case in.Op.IsMem():
			// Streaming (cold) addresses are compulsory misses by
			// construction; warming them would replay the measured run's
			// stream as hits.
			if in.Addr < trace.ColdBase {
				mem.WarmData(in.Addr)
			}
		case in.Op.IsBranch():
			bp.Predict(in.PC)
			bp.Update(in.PC, in.Taken, in.Target)
		}
	}
	// Warmup statistics would pollute measurement; clear them.
	mem.L1I.Accesses, mem.L1I.Misses = 0, 0
	mem.L1D.Accesses, mem.L1D.Misses = 0, 0
	mem.L2.Accesses, mem.L2.Misses = 0, 0
	bp.Lookups, bp.Mispredict = 0, 0
}

// WarmState is the cache and branch-predictor state Warmup(n) leaves in
// a fresh pipeline for one profile, held on a hierarchy and predictor of
// its own. It is never written after NewWarmState returns, so any number
// of pipelines may load it concurrently.
type WarmState struct {
	prof trace.Profile
	n    int
	mem  *cache.Hierarchy
	bp   *bpred.Predictor
}

// NewWarmState warms a hierarchy built to cfg's geometry (cfg must
// validate) and a default predictor with the first n instructions of
// prof's stream.
func NewWarmState(cfg *config.Config, prof trace.Profile, n int) *WarmState {
	ws := &WarmState{prof: prof, n: n, mem: newHierarchy(cfg), bp: bpred.Default()}
	warm(ws.mem, ws.bp, prof, n, lineShift(cfg))
	return ws
}

// Instructions returns the warmup length the state was built with.
func (ws *WarmState) Instructions() int { return ws.n }

// LoadWarm installs a copy of ws in p's caches and predictor. On a fresh
// pipeline it leaves exactly the state Warmup(ws.Instructions()) would.
// ws must have been built for p's profile and cache geometry; a mismatch
// is a programming error and panics.
func (p *Pipeline) LoadWarm(ws *WarmState) {
	if prof := p.gen.Profile(); ws.prof != prof {
		panic(fmt.Sprintf("pipeline: warm state of %s (seed %d) loaded into a %s (seed %d) pipeline",
			ws.prof.Name, ws.prof.Seed, prof.Name, prof.Seed))
	}
	p.mem.CopyFrom(ws.mem)
	p.bp.CopyFrom(ws.bp)
}
