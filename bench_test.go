// Package repro's top-level benchmarks regenerate the paper's tables and
// figures as testing.B benchmarks, one per table and figure, plus
// ablations of the design choices called out in DESIGN.md.
//
// Benchmarks run shortened windows by default so `go test -bench=.` stays
// tractable; the full-length reference results live in EXPERIMENTS.md and
// are regenerated with `go run ./cmd/experiments all`. Each benchmark
// reports its headline quantities via b.ReportMetric: IPC per variant,
// speedups (in percent), temperatures (in kelvin above 300 to keep the
// numbers readable), and event counts.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/issueq"
	"repro/internal/multicore"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchCycles and benchWarmup keep each experiment iteration around a
// second; they cover ~25 ms of accelerated thermal time, enough for the
// heating dynamics to act, though with fewer cooling-stall events than the
// full windows recorded in EXPERIMENTS.md.
const (
	benchCycles = 800_000
	benchWarmup = 1_000_000
)

// avgK reads a block's average temperature for a benchmark metric.
func avgK(r *sim.Result, block string) float64 {
	t, _ := r.AvgTemp(block)
	return t
}

func runSpec(b *testing.B, spec experiments.Spec) *experiments.Matrix {
	b.Helper()
	spec.Cycles = benchCycles
	spec.Warmup = benchWarmup
	m, err := experiments.Run(context.Background(), spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTable3IssueEnergy exercises the paper's Table 3 circuit model:
// it drives a compacting issue queue with a steady dispatch/issue pattern
// and reports the modelled energy per instruction, which is composed
// entirely of Table 3 components.
func BenchmarkTable3IssueEnergy(b *testing.B) {
	var joules float64
	var insts uint64
	for i := 0; i < b.N; i++ {
		q := issueq.New(32, 6, 2, 128)
		next := int32(0)
		var inFlight []int32
		for cycle := 0; cycle < 20_000; cycle++ {
			for len(inFlight) < 24 {
				id := next % 128
				if q.Contains(id) || !q.Dispatch(id) {
					break
				}
				inFlight = append(inFlight, id)
				next++
			}
			for k := 0; k < 2 && len(inFlight) > 0; k++ {
				id := inFlight[0]
				inFlight = inFlight[1:]
				q.MarkReady(id)
				q.Issue(id)
			}
			q.Broadcast(2)
			q.Tick()
		}
		t0, t1 := q.EnergyTotals()
		joules += t0 + t1
		insts += q.Issues
	}
	b.ReportMetric(joules/float64(insts)*1e9, "nJ/inst")
}

// BenchmarkTable4IssueQueueHalves reproduces Table 4: average issue-queue
// half temperatures for art, facerec and mesa with and without activity
// toggling.
func BenchmarkTable4IssueQueueHalves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := runSpec(b, experiments.Table4(0))
		for _, bench := range m.Benchmarks() {
			for _, v := range []string{"base", "activity-toggling"} {
				r := m.Get(bench, v)
				b.ReportMetric(avgK(r, floorplan.IntQ1)-300, bench+"/"+v+"/tailK-300")
				b.ReportMetric(avgK(r, floorplan.IntQ0)-300, bench+"/"+v+"/headK-300")
			}
		}
	}
}

// BenchmarkFig6ActivityToggling reproduces Figure 6 on a representative
// benchmark subset: IPC with and without activity toggling on the
// issue-queue-constrained machine.
func BenchmarkFig6ActivityToggling(b *testing.B) {
	benches := []string{"eon", "gzip", "crafty", "art", "mcf"}
	for i := 0; i < b.N; i++ {
		m := runSpec(b, experiments.Fig6(0, benches...))
		for _, bench := range benches {
			b.ReportMetric(m.Get(bench, "base").IPC, bench+"/base-IPC")
			b.ReportMetric(m.Get(bench, "activity-toggling").IPC, bench+"/toggle-IPC")
		}
		mean, _ := m.MeanSpeedup("activity-toggling", "base", false)
		b.ReportMetric(mean*100, "speedup%")
	}
}

// BenchmarkTable5ALUTemperatures reproduces Table 5: per-ALU average
// temperatures and IPC for parser and perlbmk under round-robin,
// fine-grain turnoff, and base.
func BenchmarkTable5ALUTemperatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := runSpec(b, experiments.Table5(0))
		for _, bench := range m.Benchmarks() {
			for _, v := range []string{"round-robin", "fine-grain-turnoff", "base"} {
				r := m.Get(bench, v)
				b.ReportMetric(r.IPC, bench+"/"+v+"/IPC")
				b.ReportMetric(avgK(r, "IntExec0")-300, bench+"/"+v+"/ALU0K-300")
				b.ReportMetric(avgK(r, "IntExec5")-300, bench+"/"+v+"/ALU5K-300")
			}
		}
	}
}

// BenchmarkFig7FineGrainTurnoff reproduces Figure 7 on a representative
// subset: ALU-constrained IPC under base, fine-grain turnoff and the
// idealized round-robin bound.
func BenchmarkFig7FineGrainTurnoff(b *testing.B) {
	benches := []string{"perlbmk", "gzip", "parser", "art"}
	for i := 0; i < b.N; i++ {
		m := runSpec(b, experiments.Fig7(0, benches...))
		for _, bench := range benches {
			for _, v := range []string{"base", "fine-grain-turnoff", "round-robin"} {
				b.ReportMetric(m.Get(bench, v).IPC, bench+"/"+v+"/IPC")
			}
		}
		fgt, _ := m.MeanSpeedup("fine-grain-turnoff", "base", false)
		rr, _ := m.MeanSpeedup("round-robin", "base", false)
		b.ReportMetric(fgt*100, "fgt-speedup%")
		b.ReportMetric(rr*100, "rr-speedup%")
	}
}

// BenchmarkTable6RegfileTemps reproduces Table 6: eon's register-file copy
// temperatures, IPC and turnoff counts for the four mapping × turnoff
// combinations.
func BenchmarkTable6RegfileTemps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := runSpec(b, experiments.Table6(0))
		for _, v := range m.Spec.Variants {
			r := m.Get("eon", v.Name)
			b.ReportMetric(r.IPC, v.Name+"/IPC")
			b.ReportMetric(avgK(r, floorplan.IntReg0)-300, v.Name+"/copy0K-300")
			b.ReportMetric(avgK(r, floorplan.IntReg1)-300, v.Name+"/copy1K-300")
			var offs float64
			for _, n := range r.RFTurnoffsPerCopy {
				offs += float64(n)
			}
			b.ReportMetric(offs, v.Name+"/turnoffs")
		}
	}
}

// BenchmarkFig8RegfileMapping reproduces Figure 8 on a representative
// subset: register-file-constrained IPC for the four combinations.
func BenchmarkFig8RegfileMapping(b *testing.B) {
	benches := []string{"eon", "gzip", "wupwise", "parser"}
	for i := 0; i < b.N; i++ {
		m := runSpec(b, experiments.Fig8(0, benches...))
		for _, bench := range benches {
			for _, v := range m.Spec.Variants {
				b.ReportMetric(m.Get(bench, v.Name).IPC, bench+"/"+v.Name+"/IPC")
			}
		}
		fp, _ := m.MeanSpeedup("fgt+priority", "priority-only", false)
		fb, _ := m.MeanSpeedup("fgt+priority", "balanced-only", false)
		b.ReportMetric(fp*100, "fgtprio-over-prio%")
		b.ReportMetric(fb*100, "fgtprio-over-bal%")
	}
}

// BenchmarkMatrixParallelism measures the experiment matrix runner's
// scaling: one Fig6 subset run per iteration at worker counts 1, 2, 4
// and 8, reporting throughput in cells/sec. On a multi-core machine
// cells/sec should rise near-linearly until the worker count reaches
// the core count; on a single core every setting collapses to the same
// throughput. Results are byte-identical at every parallelism (see
// internal/experiments's determinism tests), so this benchmark measures
// pure scheduling, not workload drift.
func BenchmarkMatrixParallelism(b *testing.B) {
	benches := []string{"eon", "gzip", "crafty", "art"}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", par), func(b *testing.B) {
			cells := 0
			for i := 0; i < b.N; i++ {
				spec := experiments.Fig6(200_000, benches...)
				spec.Warmup = 100_000
				spec.Parallelism = par
				m, err := experiments.Run(context.Background(), spec, nil)
				if err != nil {
					b.Fatal(err)
				}
				cells += len(m.Cells)
			}
			b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/sec")
		})
	}
}

// --- Ablations (DESIGN.md) --------------------------------------------------

// BenchmarkAblationToggleThreshold sweeps the activity-toggling trigger
// threshold around the paper's 0.5 K.
func BenchmarkAblationToggleThreshold(b *testing.B) {
	for _, thr := range []float64{0.25, 0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("thr=%.2fK", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.Plan = config.PlanIQConstrained
				cfg.Techniques.IQ = config.IQToggle
				cfg.ToggleThresholdK = thr
				s, err := sim.NewByName(cfg, "gzip")
				if err != nil {
					b.Fatal(err)
				}
				s.WarmupInstructions = benchWarmup
				r := s.RunCycles(benchCycles)
				b.ReportMetric(r.IPC, "IPC")
				b.ReportMetric(float64(r.IntToggles+r.FPToggles), "toggles")
			}
		})
	}
}

// BenchmarkAblationLongCompaction quantifies the toggled queue's
// wrap-around penalty: the share of compaction energy spent on the Table 3
// "Long Compaction" wires in toggled operation.
func BenchmarkAblationLongCompaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.Default()
		cfg.Plan = config.PlanIQConstrained
		cfg.Techniques.IQ = config.IQToggle
		s, err := sim.NewByName(cfg, "gzip")
		if err != nil {
			b.Fatal(err)
		}
		s.WarmupInstructions = benchWarmup
		s.RunCycles(benchCycles)
		q := s.Pipe.IntQueue()
		wrapJ := float64(q.WrapMoves) * power.LongCompaction
		shortJ := float64(q.Moves-q.WrapMoves) * power.CompactEntryToEntry
		b.ReportMetric(float64(q.WrapMoves), "wrap-moves")
		b.ReportMetric(wrapJ/(wrapJ+shortJ)*100, "wrap-energy%")
	}
}

// BenchmarkAblationCompletelyBalanced compares the paper's rejected
// completely-balanced register mapping (long wires, perfect symmetry)
// against simplified balanced and priority mapping, all with fine-grain
// turnoff.
func BenchmarkAblationCompletelyBalanced(b *testing.B) {
	maps := []struct {
		name string
		m    config.RFMapping
	}{
		{"priority", config.MapPriority},
		{"balanced", config.MapBalanced},
		{"completely-balanced", config.MapCompletelyBalanced},
	}
	for _, mm := range maps {
		b.Run(mm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.Plan = config.PlanRFConstrained
				cfg.Techniques.RFMap = mm.m
				cfg.Techniques.RFTurnoff = mm.m != config.MapCompletelyBalanced
				s, err := sim.NewByName(cfg, "eon")
				if err != nil {
					b.Fatal(err)
				}
				s.WarmupInstructions = benchWarmup
				r := s.RunCycles(benchCycles)
				b.ReportMetric(r.IPC, "IPC")
				b.ReportMetric(avgK(r, floorplan.IntReg0)-avgK(r, floorplan.IntReg1), "copy-dT")
			}
		})
	}
}

// BenchmarkAblationWritePolicy compares the two §2.3 write policies for
// cooling register-file copies: margin writes vs copy-on-cool.
func BenchmarkAblationWritePolicy(b *testing.B) {
	for _, pol := range []config.RFWritePolicy{config.WriteMargin, config.WriteCopyOnCool} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.Plan = config.PlanRFConstrained
				cfg.Techniques.RFMap = config.MapPriority
				cfg.Techniques.RFTurnoff = true
				cfg.Techniques.RFWrites = pol
				s, err := sim.NewByName(cfg, "eon")
				if err != nil {
					b.Fatal(err)
				}
				s.WarmupInstructions = benchWarmup
				r := s.RunCycles(benchCycles)
				b.ReportMetric(r.IPC, "IPC")
				b.ReportMetric(float64(r.RFCopyTurnoffs), "turnoffs")
			}
		})
	}
}

// --- Microbenchmarks of the substrates ---------------------------------------

// BenchmarkPipelineCycle measures raw simulation speed in cycles/sec.
func BenchmarkPipelineCycle(b *testing.B) {
	cfg := config.Default()
	plan := floorplan.Build(cfg.Plan)
	meter := power.NewMeter(plan, cfg)
	prof, _ := trace.ByName("eon")
	p, err := pipeline.New(cfg, plan, meter, trace.NewGenerator(prof))
	if err != nil {
		b.Fatal(err)
	}
	p.Warmup(200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Cycle()
	}
}

// BenchmarkSimInterval measures one full sensor interval end to end:
// 10k pipeline cycles of counter increments, the single Drain that
// converts event counts to per-block joules, and the thermal RC step.
// Steady state must stay allocation-free — the drain path writes into
// caller-owned buffers only.
func BenchmarkSimInterval(b *testing.B) {
	cfg := config.Default()
	s, err := sim.NewByName(cfg, "eon")
	if err != nil {
		b.Fatal(err)
	}
	s.Pipe.Warmup(200_000)
	interval := cfg.SensorIntervalCycles
	dt := float64(interval) * cfg.ThermalSecondsPerCycle()
	pow := make([]float64, s.Plan.NumBlocks())
	// Drive past the working-set growth phase (completion rings, the
	// committed-memory image) so the measured region is steady state.
	for c := 0; c < 600_000; c++ {
		s.Pipe.Cycle()
	}
	s.Meter.Drain(600_000, 0, pow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < interval; c++ {
			s.Pipe.Cycle()
		}
		s.Th.Advance(s.Meter.Drain(interval, 0, pow), dt)
	}
}

// BenchmarkMulticoreInterval measures one lockstep multi-core interval —
// every core's 10k pipeline cycles, the shared-die thermal solve, and
// the scheduler/DTM bookkeeping — at 1/2/4/8 cores on the tiled plan.
// Cores advance serially (Parallelism=1) so the per-op cost scales
// ~linearly with the core count and is comparable across machines; the
// horizon and queue are oversized so every measured step has all cores
// busy rather than draining.
func BenchmarkMulticoreInterval(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			p := multicore.Params{
				Cores:       cores,
				Scheduler:   config.SchedRoundRobin,
				Cycles:      1 << 40,
				Tasks:       8192,
				ArrivalGap:  1, // saturated queue: cores never idle
				Parallelism: 1,
			}
			s, err := multicore.NewSystem(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIssueQueueTick measures the compacting queue's per-cycle cost.
func BenchmarkIssueQueueTick(b *testing.B) {
	q := issueq.New(32, 6, 2, 128)
	for id := int32(0); id < 24; id++ {
		q.Dispatch(id)
	}
	next := int32(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			id := int32(i/2) % 128
			if !q.Contains(id) && q.StateOf(id) == issueq.Empty {
				if q.Dispatch(id) {
					q.MarkReady(id)
					q.Issue(id)
				}
			}
			_ = next
		}
		q.Tick()
	}
}

// BenchmarkGenerator measures trace synthesis throughput.
func BenchmarkGenerator(b *testing.B) {
	prof, _ := trace.ByName("gcc")
	g := trace.NewGenerator(prof)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkAblationNonCompacting contrasts the paper's compacting queue
// with the related-work non-compacting organization it cites: without
// compaction the queue burns far less energy and the half asymmetry that
// activity toggling exploits disappears — supporting the paper's premise
// that compaction is both the energy hog and the asymmetry source.
func BenchmarkAblationNonCompacting(b *testing.B) {
	for _, mode := range []struct {
		name string
		iq   config.IQPolicy
	}{
		{"compacting", config.IQBase},
		{"non-compacting", config.IQNonCompacting},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.Plan = config.PlanIQConstrained
				cfg.Techniques.IQ = mode.iq
				s, err := sim.NewByName(cfg, "gzip")
				if err != nil {
					b.Fatal(err)
				}
				s.WarmupInstructions = benchWarmup
				r := s.RunCycles(benchCycles)
				b.ReportMetric(r.IPC, "IPC")
				b.ReportMetric(avgK(r, floorplan.IntQ1)-avgK(r, floorplan.IntQ0), "half-dT")
				b.ReportMetric(float64(r.Stalls), "stalls")
			}
		})
	}
}
