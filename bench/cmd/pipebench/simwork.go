package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/multicore"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sim"
)

// simWorkers is the worker count (Parallelism) of the simulator
// workloads. One worker leaves the second CPU to the rest of the machine:
// in an hour when other tenants loaded the reference VM, the host time per
// cell spread 9% across interleaved runs with one worker and 17.5% with
// two.
const simWorkers = 1

// paperBenchmarks are the profiles of every paper-matrix experiment, one
// SPECint and one SPECfp. Both are hot, so DTM stalls, activity toggles,
// ALU and register-file turnoffs and DVFS all fire inside a short cell.
// The seed does not choose profiles: a 4M-cycle cell costs from 0.5 s
// (mcf) to 6.1 s (mgrid) on the reference machine, so drawn profiles would
// spread the run time across seeds far beyond any regression bound.
var paperBenchmarks = []string{"eon", "mesa"}

// paperCycles is the paper-matrix cell length. A round of the four
// experiments on both profiles (26 cells) takes four fifths of the time
// it takes at 1M cycles, and a small fraction of the default 4M, and
// every technique still engages: one round has 19 stop-go stalls, 45
// activity toggles, 55 ALU and 7 register-file turnoffs and 5 DVFS
// engagements.
//
// A run measures whole rounds only. Cells differ in cost by a factor of
// three (eon's stalled fig8 cells are the cheapest, mesa's fig7 turnoff
// cells the dearest), so a run that stopped mid-round would take its
// median over a different mix of cells whenever the host ran a little
// faster or slower.
const paperCycles = 600_000

// childJob is what a simulator child runs, written to a file by the parent.
type childJob struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	TraceFile string  `json:"trace_file"`
	Scratch   string  `json:"scratch"`
}

// childSummary is the child's report: the operations' latencies, the
// untraced wall time they took, and named values (per-layer and info).
type childSummary struct {
	LatMs    []float64          `json:"lat_ms"`
	WallS    float64            `json:"wall_s"`
	Digest   string             `json:"digest"`
	Problems []string           `json:"problems"`
	Values   map[string]float64 `json:"values"`
}

// childWorkloads prepare a simulator workload, including its warm-up
// operation, before the child reports ready, and return the measured part.
var childWorkloads = map[string]func(childJob) (func(*childSummary) error, error){
	"paper-matrix": preparePaperMatrix,
	"multicore":    prepareMulticore,
}

func runPaperMatrix(e *env, rep *report) error {
	return runSimWorkload(e, rep, goldenFig6)
}

func runMulticore(e *env, rep *report) error {
	return runSimWorkload(e, rep, goldenMulticore)
}

// goldenFig6 reproduces internal/experiments/testdata/fig6_short.golden:
// the figure and Table-4 reports of a short Fig6 run.
func goldenFig6(root string) error {
	spec := experiments.Fig6(150_000, "art", "eon", "gzip")
	spec.Warmup = 50_000
	spec.Parallelism = simWorkers
	m, err := experiments.Run(context.Background(), spec, nil)
	if err != nil {
		return err
	}
	return sameAsFile(root, "fig6_short.golden", m.FigureReport()+"\n"+m.Table4Report())
}

// goldenMulticore reproduces multicore_short.golden.
func goldenMulticore(root string) error {
	spec := experiments.Multicore(1_200_000, 4)
	spec.Warmup = 20_000
	spec.Seed = 7
	spec.Parallelism = simWorkers
	m, err := experiments.RunMulticore(context.Background(), spec, nil)
	if err != nil {
		return err
	}
	return sameAsFile(root, "multicore_short.golden", m.Report())
}

func sameAsFile(root, name, got string) error {
	want, err := os.ReadFile(filepath.Join(root, "internal/experiments/testdata", name))
	if err != nil {
		return err
	}
	if got != string(want) {
		return fmt.Errorf("output differs from %s", name)
	}
	return nil
}

// runSimWorkload checks the golden, starts the child setupRuns times
// (each start to "ready" is one set-up sample), lets the last child run
// the workload, and reads its peak RSS and CPU time from /proc.
func runSimWorkload(e *env, rep *report, golden func(root string) error) error {
	if err := golden(e.root); err != nil {
		rep.fail("golden preflight: %v", err)
	}
	job := childJob{
		Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		TraceFile: e.traceFile, Scratch: filepath.Join(e.runDir, "probe"),
	}
	jobPath := filepath.Join(e.runDir, "job.json")
	raw, err := json.Marshal(job)
	if err != nil {
		return err
	}
	if err := os.WriteFile(jobPath, raw, 0o644); err != nil {
		return err
	}
	var (
		setups []float64
		c      *child
	)
	for i := 0; i < setupRuns; i++ {
		var took time.Duration
		if c, took, err = startChild(e, jobPath); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < setupRuns-1 {
			if err := c.quit(); err != nil {
				return err
			}
		}
	}
	pid := c.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		c.kill()
		return err
	}
	var sum childSummary
	stopRSS := sampleRSS(pid)
	err = c.run(&sum)
	rss, err1 := stopRSS()
	if err != nil {
		c.kill()
		return err
	}
	cpu1, err2 := procCPU(pid)
	peak, err3 := procMB(pid, "VmHWM")
	if err := c.quit(); err != nil {
		return err
	}
	if err := errors.Join(err1, err2, err3); err != nil {
		return fmt.Errorf("reading /proc/%d: %w", pid, err)
	}

	for k, v := range sum.Values {
		rep.put(k, v)
	}
	for _, p := range sum.Problems {
		rep.fail("%s", p)
	}
	if err := checkDigest(e, rep, sum.Digest); err != nil {
		return err
	}
	// A simulator operation cannot fail without ending the run, so every
	// measured operation counts as attempted and none as failed.
	d := summarize(sum.LatMs)
	rep.attempted = d.N
	rep.put("setup_s", median(setups))
	rep.put("setup_runs", float64(len(setups)))
	rep.put("latency_p50_ms", d.P50)
	rep.put("latency_tail_ms", d.Tail)
	rep.put("latency_tail_pct", d.TailP)
	rep.put("ops", float64(d.N))
	rep.put("ops_per_s", float64(d.N)/sum.WallS)
	rep.put("cpu_ms_per_op", millis(cpu1-cpu0)/float64(d.N))
	rep.put("rss_mb", rss)
	rep.put("peak_rss_mb", peak)
	rep.put("error_rate", float64(rep.failed)/float64(max(1, rep.attempted)))
	return nil
}

// childMain is the simulator program under test: it prepares its job,
// prints "ready", runs on "go", prints its summary, and exits on "quit"
// (waiting so the parent can read its peak RSS first).
func childMain(jobPath string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(jobPath)
	var job childJob
	if err == nil {
		err = json.Unmarshal(raw, &job)
	}
	prepare, ok := childWorkloads[job.Workload]
	if err != nil || !ok {
		fmt.Fprintf(stderr, "pipebench child: bad job %s: %v\n", jobPath, err)
		return 2
	}
	work, err := prepare(job)
	if err != nil {
		fmt.Fprintf(stderr, "pipebench child: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	in := bufio.NewScanner(os.Stdin)
	if !in.Scan() || in.Text() != "go" {
		return 0
	}
	sum := childSummary{Values: map[string]float64{}}
	if err := work(&sum); err != nil {
		fmt.Fprintf(stderr, "pipebench child: %v\n", err)
		return 1
	}
	out, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "pipebench child: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	in.Scan()
	return 0
}

// progressClock timestamps the progress lines experiments.Run writes as
// each cell completes.
type progressClock struct {
	mu    sync.Mutex
	at    []time.Time
	lines []string
}

func (p *progressClock) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.at = append(p.at, time.Now())
	p.lines = append(p.lines, string(b))
	p.mu.Unlock()
	return len(b), nil
}

// cellLatencies reconstructs each cell's latency from the completion
// times of a matrix run on the given number of workers. runner.Run hands
// cells out in index order over an unbuffered channel, so with P workers
// cell k >= P starts when the (k-P+1)-th cell completes. It also returns
// the runner's tail: the time from the first worker running out of cells
// to the matrix's end.
func cellLatencies(m *experiments.Matrix, clk *progressClock, t0, t1 time.Time, workers int) ([]float64, time.Duration, error) {
	n := len(m.Cells)
	if len(clk.at) != n {
		return nil, 0, fmt.Errorf("%d progress lines for %d cells", len(clk.at), n)
	}
	index := make(map[string]int, n)
	for i, c := range m.Cells {
		index[c.Benchmark+" "+c.Variant] = i
	}
	done := make([]time.Time, n)
	for k, line := range clk.lines {
		_, rest, _ := strings.Cut(line, "] ")
		f := strings.Fields(rest) // experiment, benchmark, variant, ...
		i, ok := 0, false
		if len(f) >= 3 {
			i, ok = index[f[1]+" "+f[2]]
		}
		if !ok {
			return nil, 0, fmt.Errorf("unmatched progress line %q", line)
		}
		done[i] = clk.at[k]
	}
	p := runner.Resolve(workers, n)
	lat := make([]float64, n)
	for i := range lat {
		start := t0
		if i >= p {
			start = clk.at[i-p]
		}
		lat[i] = millis(done[i].Sub(start))
	}
	return lat, t1.Sub(clk.at[n-p]), nil
}

func preparePaperMatrix(job childJob) (func(*childSummary) error, error) {
	// A round runs specs in order: each is one experiment on both profiles.
	var specs []experiments.Spec
	for _, id := range paperExperiments {
		spec, err := experiments.ByID(id, paperCycles, paperBenchmarks...)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	// Warm-up: a one-cell matrix of the first experiment, about 60 ms on
	// the reference machine.
	warm := specs[0]
	warm.Benchmarks, warm.Variants = paperBenchmarks[:1], warm.Variants[:1]
	warm.Cycles, warm.Warmup, warm.Parallelism = 200_000, 50_000, simWorkers
	if _, err := experiments.Run(context.Background(), warm, nil); err != nil {
		return nil, err
	}
	return func(sum *childSummary) error {
		// The seed moves every experiment's cycle budget and warmup by up
		// to 1%: each seed's cells and reports are distinct, their cost
		// is not.
		rng := newRand(job.Seed, streamPaper)
		var rec *recorder
		if job.Trace {
			rec = newRecorder()
		}
		acc := &layerAcc{}
		digest := sha256.New()
		var (
			committed    uint64
			busyMs, tail float64
			matrices     int
			reqs         []service.Request
			results      [][]byte
		)
		start := time.Now()
		// Whole rounds, as many as come nearest to the time asked for; the
		// first round is the digest.
		for round := 0; anotherRound(round, time.Since(start).Seconds(), job.Seconds); round++ {
			for _, spec := range specs {
				spec.Cycles += rng.Int64N(20_001) - 10_000
				spec.Warmup = sim.DefaultWarmup + rng.IntN(60_001) - 30_000
				spec.Parallelism = simWorkers
				clk := &progressClock{}
				t0 := time.Now()
				m, err := experiments.Run(context.Background(), spec, clk)
				t1 := time.Now()
				if err != nil {
					return err
				}
				lat, tl, err := cellLatencies(m, clk, t0, t1, spec.Parallelism)
				if err != nil {
					return err
				}
				sum.LatMs = append(sum.LatMs, lat...)
				sum.WallS += t1.Sub(t0).Seconds()
				for _, l := range lat {
					busyMs += l
				}
				tail += tl.Seconds()
				matrices++
				for _, c := range m.Cells {
					committed += c.R.Committed
				}
				if round == 0 {
					io.WriteString(digest, m.Report())
				}
				if !job.Trace {
					continue
				}
				if err := replicaMatrix(rec, acc, spec, m, lat, int64(len(sum.LatMs)-len(lat))); err != nil {
					return err
				}
				if round == 0 {
					for i, c := range m.Cells {
						b, err := json.Marshal(c.R)
						if err != nil {
							return err
						}
						reqs = append(reqs, matrixCell(spec, m, i).request())
						results = append(results, b)
					}
				}
			}
		}
		sum.Digest = hex.EncodeToString(digest.Sum(nil))
		sum.Values["sim_minst_per_s"] = float64(committed) / 1e6 / sum.WallS
		sum.Values["runner.busy_frac"] = busyMs / 1e3 / (simWorkers * sum.WallS)
		sum.Values["runner.tail_s"] = tail / float64(matrices)
		if !job.Trace {
			return nil
		}
		sum.Values["bench.trace_overhead_pct"] = acc.overheadPct()
		return finishTrace(job, sum, rec, acc, paperBenchmarks, reqs, results)
	}, nil
}

// matrixCell is the payload of cell i of the matrix m ran for spec.
func matrixCell(spec experiments.Spec, m *experiments.Matrix, i int) cell {
	return cell{
		Bench: m.Cells[i].Benchmark, Plan: spec.Plan, Tech: spec.Variants[i%len(spec.Variants)].Tech,
		Cycles: spec.Cycles, Warmup: spec.Warmup,
	}
}

// replicaMatrix replays every cell of m through the traced replica on the
// same worker count and checks each against its untraced result and
// latency.
func replicaMatrix(rec *recorder, acc *layerAcc, spec experiments.Spec, m *experiments.Matrix, latMs []float64, traceBase int64) error {
	lanes := make(chan int, simWorkers)
	for i := 0; i < simWorkers; i++ {
		lanes <- i
	}
	return runner.Run(context.Background(), simWorkers, len(m.Cells), func(i int) error {
		lane := <-lanes
		defer func() { lanes <- lane }()
		took := time.Duration(latMs[i] * float64(time.Millisecond))
		return checkedReplica(rec, lane, traceBase+int64(i), acc, matrixCell(spec, m, i), m.Cells[i].R, took)
	})
}

// finishTrace reports the layer probes and the fidelity check, and writes
// the span file.
func finishTrace(job childJob, sum *childSummary, rec *recorder, acc *layerAcc, benches []string, reqs []service.Request, results [][]byte) error {
	if err := layerProbes(sum.Values, acc, rec.snapshot(), benches, job.Scratch, reqs, results); err != nil {
		return err
	}
	if acc.mismatches > 0 {
		sum.Problems = append(sum.Problems, fmt.Sprintf("%d traced replicas diverged from their untraced runs", acc.mismatches))
	}
	return saveTrace(job.TraceFile, rec)
}

// multicoreTasks are single-core cells shaped like the multicore
// workload's tasks (its benchmark mix, the multicore task warmup), long
// enough to reach the thermal loop; traced runs probe the sim layers and
// the service layer on them.
func multicoreTasks() []cell {
	p := multicore.Params{}.Normalized()
	var out []cell
	for _, b := range p.Benchmarks {
		out = append(out, cell{Bench: b, Plan: p.Plan, Cycles: 80_000, Warmup: p.Warmup})
	}
	return out
}

// mcRoundSeeds is how many seeds a multicore round covers: eight
// scheduler runs. With one seed, a run's median came from two runs, and a
// stall of the host in either moved it by a quarter.
const mcRoundSeeds = 2

func prepareMulticore(job childJob) (func(*childSummary) error, error) {
	if err := (multicore.Params{}).Normalized().Validate(); err != nil {
		return nil, err
	}
	scheds := config.Schedulers()
	// Warm-up: the default 4-core die with four tiny tasks, about 150 ms
	// on the reference machine, most of it building the system.
	warm := multicore.Params{Scheduler: scheds[0], Tasks: 4, TaskCycles: 10_000, Warmup: 20_000, Parallelism: simWorkers}
	if _, err := multicore.Run(context.Background(), warm); err != nil {
		return nil, err
	}
	return func(sum *childSummary) error {
		var rec *recorder
		if job.Trace {
			rec = newRecorder()
		}
		mc := &mcStats{}
		digest := sha256.New()
		var committed uint64
		var ratios []float64 // per run: traced over untraced wall time
		start := time.Now()
		// Whole rounds, as many as come nearest to the time asked for. A
		// round is mcRoundSeeds seeds, each with all four schedulers: a
		// roundrobin run costs a sixth less than a threshold-migrate one,
		// so a run that stopped mid-seed would take its median over a
		// different mix of schedulers.
		for round := 0; anotherRound(round, time.Since(start).Seconds(), job.Seconds); round++ {
			for i := 0; i < mcRoundSeeds*len(scheds); i++ {
				seed, sch := job.Seed+uint64(round*mcRoundSeeds+i/len(scheds)), scheds[i%len(scheds)]
				spec := experiments.Multicore(0, 4, sch)
				spec.Seed = seed
				spec.Parallelism = simWorkers
				t0 := time.Now()
				m, err := experiments.RunMulticore(context.Background(), spec, nil)
				wall := time.Since(t0)
				if err != nil {
					return err
				}
				r := m.Cells[0].R
				b, err := json.Marshal(r)
				if err != nil {
					return err
				}
				if seed == job.Seed {
					digest.Write(b)
				}
				sum.LatMs = append(sum.LatMs, millis(wall))
				sum.WallS += wall.Seconds()
				committed += r.TotalCommitted
				mc.tasks += r.TasksCompleted
				if job.Trace {
					p := multicore.Params{Cores: spec.Cores, Scheduler: sch, Cycles: experiments.DefaultCycles, Seed: seed, Parallelism: simWorkers}
					tw, err := tracedMulticore(rec, mc, p, b, int64(len(sum.LatMs)-1))
					if err != nil {
						return err
					}
					ratios = append(ratios, tw.Seconds()/wall.Seconds())
				}
			}
		}
		sum.Digest = hex.EncodeToString(digest.Sum(nil))
		sum.Values["sim_minst_per_s"] = float64(committed) / 1e6 / sum.WallS
		sum.Values["multicore.tasks_completed"] = float64(mc.tasks)
		if !job.Trace {
			return nil
		}
		sum.Values["bench.trace_overhead_pct"] = 100 * (median(ratios) - 1)
		mc.report(sum.Values)
		// Diverged multicore runs count with diverged replica cells.
		acc := &layerAcc{mismatches: mc.mismatches}
		var reqs []service.Request
		var results [][]byte
		for i, c := range multicoreTasks() {
			t := time.Now()
			want, b, err := computeCell(c)
			if err != nil {
				return err
			}
			if err := checkedReplica(rec, 1, int64(-1-i), acc, c, want, time.Since(t)); err != nil {
				return err
			}
			reqs = append(reqs, c.request())
			results = append(results, b)
		}
		return finishTrace(job, sum, rec, acc, multicore.DefaultMix(), reqs, results)
	}, nil
}

// mcStats accumulates the traced multicore runs' step timings.
type mcStats struct {
	newMs, stepMs, startMs, steadyMs, usPerBusy []float64
	intervals, tasks, mismatches                int
	tiledAdvUs                                  []float64
}

// tracedMulticore repeats one scheduler run as NewSystem plus a Step
// loop, with a span for each, and checks its Result JSON against want,
// the untraced run's. A step "starts" a task when a core that was idle
// before it is busy after it; those steps build and warm a machine.
func tracedMulticore(rec *recorder, mc *mcStats, p multicore.Params, want []byte, trace int64) (time.Duration, error) {
	t0 := time.Now()
	sys, err := multicore.NewSystem(p)
	if err != nil {
		return 0, err
	}
	now := time.Now()
	rec.add(span{Name: "multicore.new", Trace: trace}, t0, now)
	mc.newMs = append(mc.newMs, millis(now.Sub(t0)))
	busy := make([]bool, sys.NumCores())
	for !sys.Done() {
		for c := range busy {
			busy[c] = sys.CoreBusy(c)
		}
		if err := sys.Step(); err != nil {
			return 0, err
		}
		t := time.Now()
		started, nBusy := false, 0
		for c := range busy {
			if sys.CoreBusy(c) {
				nBusy++
				started = started || !busy[c]
			}
		}
		rec.add(span{Name: "multicore.step", Trace: trace, Count: int64(nBusy)}, now, t)
		ms := millis(t.Sub(now))
		mc.stepMs = append(mc.stepMs, ms)
		if started {
			mc.startMs = append(mc.startMs, ms)
		} else {
			mc.steadyMs = append(mc.steadyMs, ms)
			if nBusy > 0 {
				mc.usPerBusy = append(mc.usPerBusy, ms*1e3/float64(nBusy))
			}
		}
		mc.intervals++
		now = t
	}
	total := now.Sub(t0)
	got, err := json.Marshal(sys.Result())
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		mc.mismatches++
	}
	// Probe the shared die's thermal step: the >64-node tiled network
	// takes the sparse path. The run is over, so advancing it is harmless.
	cfg := config.Default()
	pow := make([]float64, sys.Plan.NumBlocks())
	for i := range pow {
		pow[i] = 0.5
	}
	const reps = 200
	t := time.Now()
	for i := 0; i < reps; i++ {
		sys.Th.Advance(pow, float64(cfg.SensorIntervalCycles)*cfg.ThermalSecondsPerCycle())
	}
	mc.tiledAdvUs = append(mc.tiledAdvUs, micros(time.Since(t))/reps)
	return total, nil
}

func (mc *mcStats) report(v map[string]float64) {
	steps := sortedCopy(mc.stepMs)
	v["multicore.new_ms"] = median(mc.newMs)
	v["multicore.step_ms_p50"] = nearestRank(steps, 50)
	v["multicore.step_ms_p95"] = nearestRank(steps, 95)
	v["multicore.step_start_ms"] = median(mc.startMs)
	v["multicore.step_steady_ms"] = median(mc.steadyMs)
	v["multicore.us_per_busy_core_interval"] = median(mc.usPerBusy)
	v["multicore.intervals"] = float64(mc.intervals)
	v["thermal.tiled_advance_us"] = median(mc.tiledAdvUs)
}
