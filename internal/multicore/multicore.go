// Package multicore maps N independent core instances — each a full
// sim/pipeline stack with its own rng stream and trace profile — onto one
// shared floorplan (floorplan.Tile) and one shared thermal network,
// advanced in lockstep sensor intervals so every core's power deposits
// into the same temperature field. A pluggable task-to-core scheduler
// (see Scheduler) drains a finite queue of jobs drawn from the calibrated
// trace profiles; thermal-aware policies (coolest-first per Hung et al.,
// threshold-migrate per Chrobak et al.) are compared against
// temperature-blind baselines on peak temperature, average temperature,
// cooling stalls, and aggregate throughput.
//
// The layer above the paper: the paper balances utilization *within* one
// core's pipeline to flatten power density; this package balances work
// *across* cores against the shared thermal state. Each core keeps its
// own single-core floorplan and thermal model as a sensor mirror — the
// per-core dynamic thermal manager reads the shared field's temperatures
// through it unchanged — while only the shared tiled network is ever
// integrated.
package multicore

import (
	"context"
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/floorplan"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/trace"
)

// DefaultMix is the task benchmark rotation used when Params.Benchmarks
// is empty: hot cache-resident codes (~25 W) strictly alternating with
// cool memory-bound ones (~15-19 W), so the die heats asymmetrically and
// placement decisions matter. A blind rotation phase-locks the hot tasks
// onto the same tiles at the default core counts, which is exactly the
// stacking a thermal-aware policy exists to avoid.
func DefaultMix() []string {
	return []string{"eon", "mcf", "perlbmk", "art", "crafty", "swim", "gzip", "parser"}
}

// Params describes one multicore scheduling run. The zero value is not
// runnable; use Normalized to fill defaults. Parallelism is excluded from
// the JSON identity: results are bit-identical at any worker count.
type Params struct {
	Cores     int              `json:"cores"`
	Scheduler config.Scheduler `json:"scheduler"`
	// Cycles caps the lockstep wall-clock horizon; the run ends earlier
	// once every task has completed (its makespan).
	Cycles int64 `json:"cycles"`
	// Warmup is the per-task architectural warmup in instructions;
	// defaults to 100k — tasks are short jobs, not steady-state runs.
	Warmup int `json:"warmup"`
	// Tasks is the queue length; defaults to 8×Cores.
	Tasks int `json:"tasks"`
	// TaskCycles is the base per-task budget in active cycles; individual
	// task lengths vary deterministically in [0.5, 1.5)× around it.
	// Defaults to Cycles/64, which puts a task's active residence well
	// below the block-level thermal time constant (~4 ms): consecutive hot
	// tasks on one tile ratchet its temperature upward instead of washing
	// out, so the tile temperature a scheduler sees at assignment still
	// matters when the task peaks.
	TaskCycles int64 `json:"task_cycles"`
	// MaxTempK is the scenario's DTM budget (critical threshold for the
	// per-core managers and the migration band). The single-core default
	// threshold sits above any operating point the shared package allows,
	// so it would never engage here; the multicore default is sized to the
	// shared-die regime instead. Zero selects that default.
	MaxTempK float64 `json:"max_temp_k"`
	// ArrivalGap spaces task release times (cycles). Tasks are only
	// assignable once released, so at the default — 3·TaskCycles/(2·Cores),
	// about 2/3 load — cores regularly sit idle and placement is a real
	// choice among several cooling tiles, the regime the thermal-aware
	// policies are about. Set to 1 to release everything up front (a
	// saturated queue degenerates every policy to "take the one idle
	// core").
	ArrivalGap int64  `json:"arrival_gap"`
	Seed       uint64 `json:"seed"`
	// Benchmarks is the task mix, cycled in task order; empty = DefaultMix.
	Benchmarks []string                `json:"benchmarks,omitempty"`
	Plan       config.FloorplanVariant `json:"plan"`

	// Parallelism bounds the workers advancing cores within one interval;
	// <=0 means GOMAXPROCS. Not part of the run's identity.
	Parallelism int `json:"-"`
}

// DefaultMaxTempK is the default multicore DTM budget: just under the
// peaks a temperature-blind scheduler reaches at the default operating
// point, so blind placement trips cooling stalls that thermal-aware
// placement avoids.
const DefaultMaxTempK = 354.0

// Normalized returns p with defaults filled in.
func (p Params) Normalized() Params {
	if p.Cores <= 0 {
		p.Cores = 4
	}
	if p.Cycles <= 0 {
		p.Cycles = 4_000_000
	}
	if p.Warmup <= 0 {
		p.Warmup = 100_000
	}
	if p.Tasks <= 0 {
		p.Tasks = 16 * p.Cores
	}
	if p.TaskCycles <= 0 {
		p.TaskCycles = p.Cycles / 64
	}
	if p.MaxTempK <= 0 {
		p.MaxTempK = DefaultMaxTempK
	}
	if p.ArrivalGap <= 0 {
		p.ArrivalGap = 3 * p.TaskCycles / (2 * int64(p.Cores))
	}
	if len(p.Benchmarks) == 0 {
		p.Benchmarks = DefaultMix()
	}
	return p
}

// Validate checks a normalized Params.
func (p Params) Validate() error {
	switch {
	case p.Cores < 1 || p.Cores > 256:
		return fmt.Errorf("multicore: cores %d out of range [1, 256]", p.Cores)
	case p.Cycles < 1:
		return fmt.Errorf("multicore: non-positive cycle horizon %d", p.Cycles)
	case p.Tasks < 1:
		return fmt.Errorf("multicore: non-positive task count %d", p.Tasks)
	case p.TaskCycles < 1:
		return fmt.Errorf("multicore: non-positive task budget %d", p.TaskCycles)
	case p.Scheduler > config.SchedThresholdMigrate:
		return fmt.Errorf("multicore: unknown scheduler %v", p.Scheduler)
	case p.MaxTempK <= config.Default().AmbientK:
		return fmt.Errorf("multicore: DTM budget %.1f K not above ambient", p.MaxTempK)
	}
	for _, b := range p.Benchmarks {
		if _, err := trace.ByName(b); err != nil {
			return fmt.Errorf("multicore: %w", err)
		}
	}
	return nil
}

// Grid returns the near-square rows×cols tiling for n cores: the largest
// divisor pair with rows ≤ cols (a 1×n strip when n is prime).
func Grid(n int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return rows, n / rows
}

// Task is one finite job in the queue.
type Task struct {
	ID        int
	Benchmark string
	// Cycles is the task's budget in active (non-stalled) cycles.
	Cycles int64
	// Arrival is the wall-clock cycle the task becomes assignable at.
	Arrival int64

	executed   int64
	committed  uint64 // accumulated across migrations
	migrations int
	done       bool
}

// coreState is one core slot on the shared die.
type coreState struct {
	id     int
	stream *rng.Source // the (seed, coreID)-derived per-core stream

	machine *sim.Simulator // nil while idle
	task    *Task
	// stallRemaining quantizes a cooling-stall demand to whole sensor
	// intervals (see sim's interval-stepping seam).
	stallRemaining int64

	tasksRun           int
	activeCycles       int64
	stallCycles        int64
	coolingStallEvents uint64
	committed          uint64 // finished work only; in-flight added at the end
	tempSum            float64
	tempPeak           float64
	hotBlock           int // base-plan block index of the peak sample
	lastPeak           float64
	powerSum           float64 // watt-intervals, for avg power
}

// System is one multicore run in progress: the shared die, the shared
// thermal field, N core slots, and the task queue.
type System struct {
	Params Params
	Plan   *floorplan.Plan // the tiled shared die
	Th     *thermal.Model  // the only thermal model ever advanced

	base     *config.Config // per-core configuration template
	basePlan *floorplan.Plan
	sched    Scheduler
	cores    []*coreState
	queue    []*Task
	nextTask int

	nb          int // blocks per core
	pow         []float64
	temps       []float64
	interval    int
	secPerCycle float64
	cycles      int64
	intervals   int
	migrations  int
	parallelism int

	idleBuf []int
	taskLen *rng.Source
}

// seedFor derives the core's stream seed from (seed, coreID); rng.New
// diffuses it through splitmix64, so consecutive cores get uncorrelated
// streams.
func seedFor(seed uint64, coreID int) uint64 {
	return seed ^ 0x9e3779b97f4a7c15*uint64(coreID+1)
}

// NewSystem builds the shared die, thermal network, core slots, and task
// queue for p (normalized and validated here).
func NewSystem(p Params) (*System, error) {
	p = p.Normalized()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	base := config.Default()
	base.Plan = p.Plan
	base.MaxTempK = p.MaxTempK
	if err := base.Validate(); err != nil {
		return nil, err
	}
	basePlan := floorplan.Build(p.Plan)
	rows, cols := Grid(p.Cores)
	plan := floorplan.Tile(basePlan, rows, cols)
	// The shared die dissipates every core's power into ONE package. The
	// copper spreader and sink plates (30/60 mm) dwarf even a tiled die;
	// only the sink-to-ambient convection is resized, sublinearly in core
	// count (R/√N): the larger package gets more fin area but shares one
	// airflow, so N cores cannot all run hot at once. One core reproduces
	// the single-core package exactly; at N=4 the package carries about
	// two cores' worth of sustained hot power — the thermally-limited
	// regime the scheduling papers study, where placement decides whether
	// a hot task's excursion over the background crosses the threshold.
	sharedCfg := base.Clone()
	sharedCfg.ConvectionRes = base.ConvectionRes / math.Sqrt(float64(p.Cores))
	th := thermal.New(plan, sharedCfg)
	sched, err := NewScheduler(p.Scheduler, p.Seed)
	if err != nil {
		return nil, err
	}
	s := &System{
		Params:      p,
		Plan:        plan,
		Th:          th,
		base:        base,
		basePlan:    basePlan,
		sched:       sched,
		nb:          basePlan.NumBlocks(),
		pow:         make([]float64, plan.NumBlocks()),
		temps:       make([]float64, plan.NumBlocks()),
		interval:    base.SensorIntervalCycles,
		secPerCycle: base.ThermalSecondsPerCycle(),
		parallelism: runner.Resolve(p.Parallelism, p.Cores),
		taskLen:     rng.New(seedFor(p.Seed, -2)),
	}
	for c := 0; c < p.Cores; c++ {
		s.cores = append(s.cores, &coreState{
			id:       c,
			stream:   rng.New(seedFor(p.Seed, c)),
			lastPeak: base.AmbientK,
			tempPeak: base.AmbientK,
			hotBlock: 0,
		})
	}
	for i := 0; i < p.Tasks; i++ {
		// Task lengths vary in [0.5, 1.5)× the base budget, drawn from a
		// queue-level stream so the workload is fixed before scheduling.
		cycles := int64(float64(p.TaskCycles) * (0.5 + s.taskLen.Float64()))
		if cycles < int64(s.interval) {
			cycles = int64(s.interval)
		}
		s.queue = append(s.queue, &Task{
			ID:        i,
			Benchmark: p.Benchmarks[i%len(p.Benchmarks)],
			Cycles:    cycles,
			Arrival:   int64(i) * p.ArrivalGap,
		})
	}
	if err := s.backgroundWarmStart(); err != nil {
		return nil, err
	}
	return s, nil
}

// NumCores returns the number of core slots.
func (s *System) NumCores() int { return len(s.cores) }

// CoreBusy reports whether core c is running or stalling a task.
func (s *System) CoreBusy(c int) bool { return s.cores[c].task != nil }

// CoreStalled reports whether core c is inside a cooling stall.
func (s *System) CoreStalled(c int) bool { return s.cores[c].stallRemaining > 0 }

// CorePeak returns the hottest block temperature of core c's tile in the
// shared field as of the last completed interval (ambient before the
// first).
func (s *System) CorePeak(c int) float64 { return s.cores[c].lastPeak }

// MaxTempK returns the critical threshold the per-core managers stall at.
func (s *System) MaxTempK() float64 { return s.base.MaxTempK }

// Cycles returns the wall-clock cycles advanced so far.
func (s *System) Cycles() int64 { return s.cycles }

// Done reports whether the run is over: every task completed, or the
// cycle horizon reached.
func (s *System) Done() bool {
	if s.cycles >= s.Params.Cycles {
		return true
	}
	if s.nextTask < len(s.queue) {
		return false
	}
	for _, c := range s.cores {
		if c.task != nil {
			return false
		}
	}
	return true
}

// start places task t on core c: a fresh machine with the task's profile
// reseeded from the core's stream, architecturally warmed.
func (s *System) start(c *coreState, t *Task) error {
	prof, err := trace.ByName(t.Benchmark)
	if err != nil {
		return err
	}
	prof.Seed = c.stream.Uint64()
	cfg := s.base.Clone()
	m, err := sim.New(cfg, prof)
	if err != nil {
		return err
	}
	m.WarmupInstructions = s.Params.Warmup
	c.machine = m
	c.task = t
	c.stallRemaining = 0
	c.tasksRun++
	return nil
}

// finish retires core c's task (or banks its progress, when the run ends
// with the task in flight).
func (s *System) finish(c *coreState, completed bool) {
	r := c.machine.Snapshot()
	c.task.committed += r.Committed
	c.committed += r.Committed
	c.task.done = completed
	c.machine = nil
	c.task = nil
	c.stallRemaining = 0
}

// Step advances the whole system one sensor interval: assign, advance all
// busy cores (in parallel, bit-identically at any worker count), deposit
// power into the shared field, integrate it once, then sense and run each
// core's thermal manager against the shared temperatures, and finally let
// the policy migrate. The error is only ever a task-start failure, which
// validation makes unreachable in practice.
func (s *System) Step() error {
	// Assignment: policy decisions are serial and in deterministic order;
	// machine construction and warmup fan out below.
	var started []*coreState
	for s.nextTask < len(s.queue) && s.queue[s.nextTask].Arrival <= s.cycles {
		idle := s.idleBuf[:0]
		for _, c := range s.cores {
			if c.task == nil {
				idle = append(idle, c.id)
			}
		}
		s.idleBuf = idle
		if len(idle) == 0 {
			break
		}
		pick := s.sched.Pick(s, idle)
		c := s.cores[pick]
		if err := s.start(c, s.queue[s.nextTask]); err != nil {
			return err
		}
		s.nextTask++
		started = append(started, c)
	}
	if len(started) > 1 && s.parallelism > 1 {
		runner.Run(context.Background(), s.parallelism, len(started), func(i int) error {
			started[i].machine.WarmupArch()
			return nil
		})
	} else {
		for _, c := range started {
			c.machine.WarmupArch()
		}
	}

	// Advance: each busy core runs one interval; power lands in the
	// core's disjoint slice of the shared vector, so the fan-out is
	// race-free and the result independent of worker count.
	runner.Run(context.Background(), s.parallelism, len(s.cores), func(i int) error {
		c := s.cores[i]
		seg := s.pow[c.id*s.nb : (c.id+1)*s.nb]
		if c.task == nil {
			for b := range seg {
				seg[b] = 0
			}
			return nil
		}
		stalled := c.stallRemaining > 0
		copy(seg, c.machine.StepInterval(stalled))
		return nil
	})
	for _, c := range s.cores {
		if c.task == nil {
			continue
		}
		if c.stallRemaining > 0 {
			c.stallRemaining -= int64(s.interval)
			c.stallCycles += int64(s.interval)
		} else {
			c.activeCycles += int64(s.interval)
			c.task.executed += int64(s.interval)
		}
	}

	s.cycles += int64(s.interval)
	s.intervals++
	for _, c := range s.cores {
		for _, p := range s.pow[c.id*s.nb : (c.id+1)*s.nb] {
			c.powerSum += p
		}
	}

	// One shared integration carries every core's heat, including
	// lateral flow across tile seams.
	s.Th.Advance(s.pow, float64(s.interval)*s.secPerCycle)

	// Sense: gather the shared field once, fold the per-core temperature
	// statistics (idle tiles included — a hot idle core is still hot),
	// and run each active core's manager against its tile.
	s.Th.Temps(s.temps)
	for _, c := range s.cores {
		seg := s.temps[c.id*s.nb : (c.id+1)*s.nb]
		peak, hot := seg[0], 0
		sum := 0.0
		for b, t := range seg {
			sum += t
			if t > peak {
				peak, hot = t, b
			}
		}
		c.lastPeak = peak
		c.tempSum += sum / float64(s.nb)
		if peak > c.tempPeak {
			c.tempPeak = peak
			c.hotBlock = hot
		}
		if c.task == nil || c.stallRemaining > 0 {
			continue
		}
		if stall := c.machine.SenseExternal(seg); stall > 0 {
			c.stallRemaining = int64(stall)
			c.coolingStallEvents++
		}
	}

	// Migration: policies with a rebalance rule move tasks between cores.
	if rb, ok := s.sched.(Rebalancer); ok {
		for _, mv := range rb.Rebalance(s) {
			from, to := s.cores[mv.From], s.cores[mv.To]
			if from.task == nil || to.task != nil {
				continue
			}
			t := from.task
			s.finish(from, false)
			if err := s.start(to, t); err != nil {
				return err
			}
			to.machine.WarmupArch()
			t.migrations++
			s.migrations++
		}
	}

	s.retire()
	return nil
}

// warmIntervals is the per-benchmark power-measurement window for the
// background warm start, matching the single-core protocol's window.
const warmIntervals = 4

// backgroundWarmStart initializes the shared field at the steady state of
// the workload's background power: each mix benchmark's per-block power is
// measured on a scratch machine (the analogue of the single-core run's
// measurement window), the mix average is scaled by the offered load
// TaskCycles/(ArrivalGap·Cores), and the result is replicated onto every
// tile. This models a machine that has been running the mix at this load
// long enough for the package — whose thermal time constant is far beyond
// any run horizon — to equilibrate, without baking any one task's private
// steady state in as an unreachable ceiling. The measurement is
// scheduler-independent and identical at any worker count: scratch seeds
// derive only from (Seed, benchmark index), and the per-benchmark vectors
// are folded serially in mix order.
func (s *System) backgroundWarmStart() error {
	perBench := make([][]float64, len(s.Params.Benchmarks))
	err := runner.Run(context.Background(), s.parallelism, len(perBench), func(i int) error {
		prof, err := trace.ByName(s.Params.Benchmarks[i])
		if err != nil {
			return err
		}
		prof.Seed = seedFor(s.Params.Seed, -4-i)
		m, err := sim.New(s.base.Clone(), prof)
		if err != nil {
			return err
		}
		m.WarmupInstructions = s.Params.Warmup
		m.WarmupArch()
		avg := make([]float64, s.nb)
		for k := 0; k < warmIntervals; k++ {
			for b, p := range m.StepInterval(false) {
				avg[b] += p
			}
		}
		for b := range avg {
			avg[b] /= warmIntervals
		}
		perBench[i] = avg
		return nil
	})
	if err != nil {
		return err
	}
	load := float64(s.Params.TaskCycles) / (float64(s.Params.ArrivalGap) * float64(s.Params.Cores))
	if load > 1 {
		load = 1
	}
	bg := make([]float64, s.nb)
	for _, avg := range perBench {
		for b, p := range avg {
			bg[b] += p
		}
	}
	for b := range bg {
		bg[b] *= load / float64(len(perBench))
	}
	warm := make([]float64, len(s.pow))
	for c := range s.cores {
		copy(warm[c*s.nb:(c+1)*s.nb], bg)
	}
	s.Th.WarmStart(warm)
	s.clampBelowThreshold()
	return nil
}

// clampBelowThreshold scales the warm-started field back toward ambient if
// any block would otherwise start at or above the critical threshold, so
// the first intervals measure scheduling, not the initial condition.
func (s *System) clampBelowThreshold() {
	temps := s.Th.Temps(s.temps)
	maxT := 0.0
	for _, t := range temps {
		if t > maxT {
			maxT = t
		}
	}
	limit := s.base.MaxTempK - 0.5
	if maxT < limit {
		return
	}
	scale := (limit - s.base.AmbientK) / (maxT - s.base.AmbientK)
	for i := range temps {
		temps[i] = s.base.AmbientK + (temps[i]-s.base.AmbientK)*scale
	}
	s.Th.SetTemps(temps)
}

// retire frees cores whose task has used up its budget; they become
// assignable at the next interval.
func (s *System) retire() {
	for _, c := range s.cores {
		if c.task != nil && c.task.executed >= c.task.Cycles {
			s.finish(c, true)
		}
	}
}

// Run drives a system built from p to completion. Cancellation is
// consulted between intervals only, so an uncancelled context is
// bit-identical to a plain loop.
func Run(ctx context.Context, p Params) (*Result, error) {
	s, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}
