// Package sim wires the full system together: workload generator →
// out-of-order pipeline → power meter → thermal network → dynamic thermal
// manager. One Simulator reproduces one cell of the paper's evaluation
// matrix: a benchmark × technique × floorplan run.
//
// The run protocol mirrors the paper's methodology (§3): architectural
// warmup (caches and branch predictor, standing in for SimPoint
// fast-forward with L2 warmup), a thermal warm start from the steady state
// of the measured power (standard HotSpot practice), then execution with
// temperature sensing every sensor interval. Overheats that the
// configured techniques cannot contain trigger a full 10 ms cooling
// stall, during which only the stall (leakage) power heats the die.
package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/trace"
)

// Simulator is one fully wired machine.
type Simulator struct {
	Cfg   *config.Config
	Plan  *floorplan.Plan
	Meter *power.Meter
	Pipe  *pipeline.Pipeline
	Th    *thermal.Model
	Mgr   *core.Manager

	prof trace.Profile
	warm *pipeline.WarmState // attached by ShareWarmup until WarmupArch installs it

	// WarmupInstructions overrides DefaultWarmup when positive; tests use
	// small values to stay fast.
	WarmupInstructions int

	globalCycles int64
	stallCycles  int64
	slowCycles   int64 // extra wall-clock cycles spent at the DVFS divided clock

	tempSum     []float64
	tempPeak    []float64
	tempSamples int
	powBuf      []float64
	tempBuf     []float64
}

// New builds a simulator for the profile under the configuration. The
// floorplan variant comes from cfg.Plan.
func New(cfg *config.Config, prof trace.Profile) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	plan := floorplan.Build(cfg.Plan)
	meter := power.NewMeter(plan, cfg)
	pipe, err := pipeline.New(cfg, plan, meter, trace.NewGenerator(prof))
	if err != nil {
		return nil, err
	}
	th := thermal.New(plan, cfg)
	mgr := core.New(cfg, plan, pipe, th)
	return &Simulator{
		Cfg:      cfg,
		Plan:     plan,
		Meter:    meter,
		Pipe:     pipe,
		Th:       th,
		Mgr:      mgr,
		prof:     prof,
		tempSum:  make([]float64, plan.NumBlocks()),
		tempPeak: make([]float64, plan.NumBlocks()),
		powBuf:   make([]float64, plan.NumBlocks()),
		tempBuf:  make([]float64, plan.NumBlocks()),
	}, nil
}

// NewByName builds a simulator for the named benchmark.
func NewByName(cfg *config.Config, benchmark string) (*Simulator, error) {
	prof, err := trace.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	return New(cfg, prof)
}

// Result summarizes one run.
type Result struct {
	Benchmark  string                  `json:"benchmark"`
	Plan       config.FloorplanVariant `json:"plan"`
	Techniques config.Techniques       `json:"techniques"`

	Committed    uint64  `json:"committed"`
	Cycles       int64   `json:"cycles"` // total, including cooling stalls
	ActiveCycles int64   `json:"active_cycles"`
	StallCycles  int64   `json:"stall_cycles"`
	IPC          float64 `json:"ipc"`

	Stalls         uint64 `json:"stalls"`
	IntToggles     uint64 `json:"int_toggles"`
	FPToggles      uint64 `json:"fp_toggles"`
	ALUTurnoffs    uint64 `json:"alu_turnoffs"`
	RFCopyTurnoffs uint64 `json:"rf_copy_turnoffs"`
	// RFTurnoffsPerCopy counts turnoff transitions per register-file copy
	// (Table 6 reports these for eon).
	RFTurnoffsPerCopy []uint64 `json:"rf_turnoffs_per_copy"`
	// DVFSEngagements and SlowCycles describe the TemporalDVFS fallback:
	// how often the divided clock engaged and how many extra wall-clock
	// cycles it cost.
	DVFSEngagements uint64  `json:"dvfs_engagements"`
	SlowCycles      int64   `json:"slow_cycles"`
	AvgChipPowerW   float64 `json:"avg_chip_power_w"`

	// Utilization is the pipeline's resource-usage telemetry, derived from
	// the same event counters that drive the energy model.
	Utilization pipeline.Utilization `json:"utilization"`

	blockNames []string
	blockIdx   map[string]int
	avgTemp    []float64
	peakTemp   []float64
}

// Blocks returns the names of the blocks the result carries
// temperatures for, in floorplan order.
func (r *Result) Blocks() []string {
	out := make([]string, len(r.blockNames))
	copy(out, r.blockNames)
	return out
}

// AvgTemp returns the named block's temperature averaged over non-stalled
// sensor samples, matching the paper's "averaged across the execution time
// (non-overheated time)". The second return is false when the result
// carries no block of that name (e.g. a per-unit block on a different
// floorplan variant).
func (r *Result) AvgTemp(block string) (float64, bool) {
	i, ok := r.blockIdx[block]
	if !ok {
		return 0, false
	}
	return r.avgTemp[i], true
}

// PeakTemp returns the named block's maximum sampled temperature; the
// second return is false for an unknown block.
func (r *Result) PeakTemp(block string) (float64, bool) {
	i, ok := r.blockIdx[block]
	if !ok {
		return 0, false
	}
	return r.peakTemp[i], true
}

// HottestBlock returns the name and average temperature of the block with
// the highest average temperature.
func (r *Result) HottestBlock() (string, float64) {
	best, bt := "", 0.0
	for i, n := range r.blockNames {
		if r.avgTemp[i] > bt {
			best, bt = n, r.avgTemp[i]
		}
	}
	return best, bt
}

func (r *Result) String() string {
	return fmt.Sprintf("%s [%v, %v]: IPC %.2f (%d stalls, %d toggle, %d turnoff)",
		r.Benchmark, r.Plan, r.Techniques, r.IPC, r.Stalls,
		r.IntToggles+r.FPToggles, r.ALUTurnoffs+r.RFCopyTurnoffs)
}

// Summary renders the run as the human-readable text block pipetherm
// prints: configuration, cycles, IPC, power, event counts and the
// hottest block.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "benchmark    %s\n", r.Benchmark)
	fmt.Fprintf(&sb, "floorplan    %v\n", r.Plan)
	fmt.Fprintf(&sb, "techniques   %v\n", r.Techniques)
	fmt.Fprintf(&sb, "cycles       %d (%d active, %d stalled)\n", r.Cycles, r.ActiveCycles, r.StallCycles)
	fmt.Fprintf(&sb, "committed    %d instructions\n", r.Committed)
	fmt.Fprintf(&sb, "IPC          %.3f\n", r.IPC)
	fmt.Fprintf(&sb, "chip power   %.1f W (average)\n", r.AvgChipPowerW)
	fmt.Fprintf(&sb, "events       %d cooling stalls, %d IQ toggles (%d int / %d fp), %d ALU turnoffs, %d RF-copy turnoffs\n",
		r.Stalls, r.IntToggles+r.FPToggles, r.IntToggles, r.FPToggles, r.ALUTurnoffs, r.RFCopyTurnoffs)
	hot, temp := r.HottestBlock()
	fmt.Fprintf(&sb, "hottest      %s at %.1f K average\n", hot, temp)
	return sb.String()
}

// Report is the Summary followed by the per-block temperatures, sorted
// hottest first.
func (r *Result) Report() string {
	var sb strings.Builder
	sb.WriteString(r.Summary())
	sb.WriteString("\nper-block temperatures (avg / peak, K):\n")
	idx := make([]int, len(r.blockNames))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.avgTemp[idx[a]] > r.avgTemp[idx[b]] })
	for _, i := range idx {
		fmt.Fprintf(&sb, "  %-10s %7.2f / %7.2f\n", r.blockNames[i], r.avgTemp[i], r.peakTemp[i])
	}
	return sb.String()
}

// DefaultWarmup is the architectural warmup length in instructions.
const DefaultWarmup = 3_000_000

// warmupLen is the architectural warmup length in instructions.
func (s *Simulator) warmupLen() int {
	if s.WarmupInstructions > 0 {
		return s.WarmupInstructions
	}
	return DefaultWarmup
}

// WarmupArch runs the architectural warmup (caches and branch
// predictor): it installs the state attached by ShareWarmup when there
// is one, and otherwise replays the warmup. Either way it consumes no
// simulated wall-clock cycles and leaves the measurement counters clean.
// run() calls it first; the multicore layer calls it directly.
func (s *Simulator) WarmupArch() {
	n := s.warmupLen()
	ws := s.warm
	if ws == nil {
		s.Pipe.Warmup(n)
		return
	}
	s.warm = nil
	if ws.Instructions() != n {
		panic(fmt.Sprintf("sim: shared warm state of %d instructions for a %d-instruction warmup", ws.Instructions(), n))
	}
	s.Pipe.LoadWarm(ws)
}

// WarmState builds the architectural state this simulator's warmup
// leaves, on caches and a predictor of its own. Every simulator of the
// same profile, warmup length and cache geometry warms to that same
// state, whatever its techniques and floorplan, so one WarmState can
// serve all of them through ShareWarmup.
func (s *Simulator) WarmState() *pipeline.WarmState {
	return pipeline.NewWarmState(s.Cfg, s.prof, s.warmupLen())
}

// ShareWarmup attaches ws for the next WarmupArch to install instead of
// replaying the warmup; the run is bit-identical to one that warms
// itself. ws must match the simulator's profile, warmup length and cache
// geometry (WarmupArch panics otherwise). The simulator lets go of ws
// once it is installed.
func (s *Simulator) ShareWarmup(ws *pipeline.WarmState) { s.warm = ws }

// ThermalWarmIntervals is the number of sensor intervals executed before
// the thermal warm start, to measure representative power. The
// multicore background warm start measures over the same window.
const ThermalWarmIntervals = 4

// RunCycles executes the benchmark for a fixed number of total cycles
// (including cooling stalls). Fixed-cycle runs give every configuration
// the same thermal window — the natural analogue of the paper's fixed
// 500 M-instruction windows, whose ~120 ms of heating history the default
// thermal acceleration packs into a few million cycles.
func (s *Simulator) RunCycles(cycles int64) *Result {
	return s.run(func() bool { return s.globalCycles < cycles })
}

// RunCyclesContext is RunCycles with cancellation: the run stops at the
// next sensor-interval boundary once ctx is done and returns ctx's
// error with a nil result. With a never-cancelled context it is
// bit-identical to RunCycles — the context is only consulted between
// intervals, never inside the simulated machine.
func (s *Simulator) RunCyclesContext(ctx context.Context, cycles int64) (*Result, error) {
	r := s.run(func() bool {
		return s.globalCycles < cycles && ctx.Err() == nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

func (s *Simulator) run(more func() bool) *Result {
	s.WarmupArch()

	interval := s.Cfg.SensorIntervalCycles
	secPerCycle := s.Cfg.ThermalSecondsPerCycle()

	// Phase 1: measure representative power over a few intervals, then
	// warm-start the thermal network at its steady state for that power,
	// clamped below the critical threshold.
	warmPow := make([]float64, s.Plan.NumBlocks())
	warmed := 0
	for i := 0; i < ThermalWarmIntervals && more(); i++ {
		s.runInterval(interval)
		s.Meter.Drain(interval, 0, s.powBuf)
		for b := range warmPow {
			warmPow[b] += s.powBuf[b]
		}
		warmed++
	}
	if warmed > 0 {
		for b := range warmPow {
			warmPow[b] /= float64(warmed)
		}
		s.Th.WarmStartBelow(warmPow, s.Cfg.MaxTempK-0.5)
	}

	// Phase 2: measured execution under dynamic thermal management.
	vScale := s.Cfg.DVFSVoltageScale * s.Cfg.DVFSVoltageScale
	for more() {
		div := 1
		if s.Mgr.DVFSActive() {
			// Scaled-clock mode: the interval takes DVFSDivider times as
			// long on the wall clock, and dynamic energy scales with V².
			div = s.Cfg.DVFSDivider
			s.Meter.SetEnergyScale(vScale)
		} else {
			s.Meter.SetEnergyScale(1)
		}
		s.runIntervalScaled(interval, div)
		pow := s.Meter.Drain(interval, 0, s.powBuf)
		if div > 1 {
			// The same energy spread over div times the wall time.
			for i := range pow {
				pow[i] /= float64(div)
			}
		}
		s.Th.Advance(pow, float64(interval*div)*secPerCycle)
		s.sampleTemps()

		if stall := s.Mgr.Control(); stall > 0 {
			s.coolingStall(stall)
		}
	}

	return s.result()
}

// runInterval advances the pipeline by n active cycles.
func (s *Simulator) runInterval(n int) {
	s.runIntervalScaled(n, 1)
}

// runIntervalScaled advances the pipeline by n core cycles that each take
// div nominal clock periods on the wall clock (DVFS); the extra wall time
// is accounted as slow cycles.
func (s *Simulator) runIntervalScaled(n, div int) {
	for i := 0; i < n; i++ {
		s.Pipe.Cycle()
	}
	s.globalCycles += int64(n * div)
	s.slowCycles += int64(n * (div - 1))
}

// coolingStall freezes the core for the given number of cycles, heating
// the die with stall power only, in sensor-interval chunks.
func (s *Simulator) coolingStall(cycles int) {
	interval := s.Cfg.SensorIntervalCycles
	secPerCycle := s.Cfg.ThermalSecondsPerCycle()
	for cycles > 0 {
		chunk := interval
		if cycles < chunk {
			chunk = cycles
		}
		pow := s.Meter.Drain(0, chunk, s.powBuf)
		s.Th.Advance(pow, float64(chunk)*secPerCycle)
		s.globalCycles += int64(chunk)
		s.stallCycles += int64(chunk)
		cycles -= chunk
	}
}

// sampleTemps accumulates the per-block average (over non-stalled samples)
// and peak temperatures.
func (s *Simulator) sampleTemps() {
	temps := s.Th.Temps(s.tempBuf)
	for b, t := range temps {
		s.tempSum[b] += t
		if t > s.tempPeak[b] {
			s.tempPeak[b] = t
		}
	}
	s.tempSamples++
}

func (s *Simulator) result() *Result {
	names := make([]string, s.Plan.NumBlocks())
	idx := make(map[string]int, s.Plan.NumBlocks())
	for i, b := range s.Plan.Blocks {
		names[i] = b.Name
		idx[b.Name] = i
	}
	avg := make([]float64, len(s.tempSum))
	for i := range avg {
		if s.tempSamples > 0 {
			avg[i] = s.tempSum[i] / float64(s.tempSamples)
		}
	}
	peak := make([]float64, len(s.tempPeak))
	copy(peak, s.tempPeak)

	committed := s.Pipe.Committed
	ipc := 0.0
	if s.globalCycles > 0 {
		ipc = float64(committed) / float64(s.globalCycles)
	}
	perCopy := make([]uint64, len(s.Pipe.RegFile().TurnoffEvents))
	copy(perCopy, s.Pipe.RegFile().TurnoffEvents)

	return &Result{
		Benchmark:         s.prof.Name,
		Plan:              s.Cfg.Plan,
		Techniques:        s.Cfg.Techniques,
		Committed:         committed,
		Cycles:            s.globalCycles,
		ActiveCycles:      s.globalCycles - s.stallCycles,
		StallCycles:       s.stallCycles,
		IPC:               ipc,
		Stalls:            s.Mgr.Stalls,
		IntToggles:        s.Mgr.IntToggles,
		FPToggles:         s.Mgr.FPToggles,
		ALUTurnoffs:       s.Mgr.ALUTurnoffs,
		RFCopyTurnoffs:    s.Mgr.RFCopyTurnoffs,
		RFTurnoffsPerCopy: perCopy,
		DVFSEngagements:   s.Mgr.DVFSEngagements,
		SlowCycles:        s.slowCycles,
		AvgChipPowerW:     s.Meter.AvgChipPower(),
		Utilization:       s.Pipe.Utilization(),
		blockNames:        names,
		blockIdx:          idx,
		avgTemp:           avg,
		peakTemp:          peak,
	}
}
