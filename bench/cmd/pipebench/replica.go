package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/sim"
)

// cellCounts are the simulated results a traced replica must reproduce
// exactly: host time may move, simulated behaviour may not. The
// temperature fields fold the per-block averages and peaks, so a replica
// whose thermal trajectory drifts fails even when no DTM event moves.
type cellCounts struct {
	Committed           uint64
	Cycles, StallCycles int64
	Stalls              uint64
	IntToggles          uint64
	FPToggles           uint64
	ALUTurnoffs         uint64
	RFCopyTurnoffs      uint64
	DVFSEngagements     uint64
	AvgChipPowerW       float64
	AvgTempSum          float64 // sum over blocks, in floorplan order
	PeakTempMax         float64
}

func countsOf(r *sim.Result) cellCounts {
	c := cellCounts{
		Committed: r.Committed, Cycles: r.Cycles, StallCycles: r.StallCycles,
		Stalls: r.Stalls, IntToggles: r.IntToggles, FPToggles: r.FPToggles,
		ALUTurnoffs: r.ALUTurnoffs, RFCopyTurnoffs: r.RFCopyTurnoffs,
		DVFSEngagements: r.DVFSEngagements, AvgChipPowerW: r.AvgChipPowerW,
	}
	for _, b := range r.Blocks() {
		avg, _ := r.AvgTemp(b)
		peak, _ := r.PeakTemp(b)
		c.AvgTempSum += avg
		c.PeakTempMax = max(c.PeakTempMax, peak)
	}
	return c
}

// Phases of one replica cell; each is a span name.
const (
	phNew = iota
	phWarmup
	phCycles
	phDrain
	phAdvance
	phWarmStart
	phControl
	phStall
	numPhases
)

var phaseNames = [numPhases]string{
	"sim.new", "pipeline.warmup", "pipeline.cycles", "power.drain",
	"thermal.advance", "thermal.warmstart", "core.control", "core.cooling_stall",
}

// layerAcc accumulates what replica cells report besides their spans:
// simulated counts, the fidelity check, and the untraced time of each
// replayed cell.
type layerAcc struct {
	mu         sync.Mutex
	cells      int
	untraced   time.Duration // the replayed cells, run untraced
	ratios     []float64     // per cell: traced over untraced time
	committed  uint64
	fetched    uint64
	stalls     uint64
	cycles     int64
	stallCyc   int64
	mismatches int
}

// thermalWarmIntervals mirrors sim's unexported constant: the sensor
// intervals run before the thermal warm start. The fidelity check fails
// if sim's protocol ever drifts from this replica.
const thermalWarmIntervals = 4

// replicaCell runs one cell through sim's exported parts (Pipe, Meter,
// Th, Mgr, Cfg) in the order sim.run uses them, recording a span per phase
// per sensor interval under one cell span. It reads the clock once per
// phase per interval, never per cycle. It returns the results reached and
// the cell's traced duration.
func replicaCell(rec *recorder, lane int, trace int64, acc *layerAcc, c cell) (cellCounts, time.Duration, error) {
	cellID := rec.newID()
	begin := time.Now()
	now := begin
	lap := func(ph int, work int64) {
		t := time.Now()
		rec.add(span{Parent: cellID, Name: phaseNames[ph], TID: lane, Trace: trace, Count: work}, now, t)
		now = t
	}

	s, err := sim.NewByName(c.config(), c.Bench)
	if err != nil {
		return cellCounts{}, 0, err
	}
	lap(phNew, 0)
	warm := c.Warmup
	if warm <= 0 {
		warm = sim.DefaultWarmup
	}
	s.Pipe.Warmup(warm)
	lap(phWarmup, int64(warm))

	cfg := s.Cfg
	interval := cfg.SensorIntervalCycles
	secPerCycle := cfg.ThermalSecondsPerCycle()
	pow := make([]float64, s.Plan.NumBlocks())
	var cycles, stallCycles int64

	// Temperature samples after every measured interval, as sim keeps them.
	tempSum := make([]float64, len(pow))
	tempPeak := make([]float64, len(pow))
	temps := make([]float64, len(pow))
	samples := 0

	warmPow := make([]float64, len(pow))
	warmed := 0
	for i := 0; i < thermalWarmIntervals && cycles < c.Cycles; i++ {
		for k := 0; k < interval; k++ {
			s.Pipe.Cycle()
		}
		cycles += int64(interval)
		lap(phCycles, int64(interval))
		s.Meter.Drain(interval, 0, pow)
		lap(phDrain, 0)
		for b := range warmPow {
			warmPow[b] += pow[b]
		}
		warmed++
	}
	if warmed > 0 {
		for b := range warmPow {
			warmPow[b] /= float64(warmed)
		}
		warmStartBelowThreshold(s, warmPow)
		lap(phWarmStart, 0)
	}

	vScale := cfg.DVFSVoltageScale * cfg.DVFSVoltageScale
	for cycles < c.Cycles {
		div := 1
		if s.Mgr.DVFSActive() {
			div = cfg.DVFSDivider
			s.Meter.SetEnergyScale(vScale)
		} else {
			s.Meter.SetEnergyScale(1)
		}
		for k := 0; k < interval; k++ {
			s.Pipe.Cycle()
		}
		cycles += int64(interval * div)
		lap(phCycles, int64(interval))
		p := s.Meter.Drain(interval, 0, pow)
		for i := range p {
			p[i] /= float64(div)
		}
		lap(phDrain, 0)
		s.Th.Advance(p, float64(interval*div)*secPerCycle)
		for b, t := range s.Th.Temps(temps) {
			tempSum[b] += t
			tempPeak[b] = max(tempPeak[b], t)
		}
		samples++
		lap(phAdvance, 0)
		stall := s.Mgr.Control()
		lap(phControl, 0)
		for stall > 0 {
			chunk := min(interval, stall)
			p := s.Meter.Drain(0, chunk, pow)
			s.Th.Advance(p, float64(chunk)*secPerCycle)
			cycles += int64(chunk)
			stallCycles += int64(chunk)
			stall -= chunk
			lap(phStall, int64(chunk))
		}
	}

	rec.add(span{ID: cellID, Name: "sim.cell", TID: lane, Trace: trace, Count: cycles}, begin, now)
	got := cellCounts{
		Committed: s.Pipe.Committed, Cycles: cycles, StallCycles: stallCycles,
		Stalls: s.Mgr.Stalls, IntToggles: s.Mgr.IntToggles, FPToggles: s.Mgr.FPToggles,
		ALUTurnoffs: s.Mgr.ALUTurnoffs, RFCopyTurnoffs: s.Mgr.RFCopyTurnoffs,
		DVFSEngagements: s.Mgr.DVFSEngagements, AvgChipPowerW: s.Meter.AvgChipPower(),
	}
	for b := range tempSum {
		if samples > 0 {
			got.AvgTempSum += tempSum[b] / float64(samples)
		}
		got.PeakTempMax = max(got.PeakTempMax, tempPeak[b])
	}
	acc.mu.Lock()
	acc.cells++
	acc.committed += got.Committed
	acc.fetched += s.Pipe.Fetched
	acc.stalls += got.Stalls
	acc.cycles += cycles
	acc.stallCyc += stallCycles
	acc.mu.Unlock()
	return got, now.Sub(begin), nil
}

// warmStartBelowThreshold is sim's warm start: the steady state of the
// measured power, scaled toward ambient if it would start any block at or
// above the critical threshold.
func warmStartBelowThreshold(s *sim.Simulator, pow []float64) {
	s.Th.WarmStart(pow)
	temps := s.Th.Temps(nil)
	maxT := 0.0
	for _, t := range temps {
		maxT = max(maxT, t)
	}
	limit := s.Cfg.MaxTempK - 0.5
	if maxT < limit {
		return
	}
	scale := (limit - s.Cfg.AmbientK) / (maxT - s.Cfg.AmbientK)
	for i := range temps {
		temps[i] = s.Cfg.AmbientK + (temps[i]-s.Cfg.AmbientK)*scale
	}
	s.Th.SetTemps(temps)
}

// checkedReplica replays run and counts a mismatch when its results
// differ from want, the untraced result of the same run, which took took.
func checkedReplica(rec *recorder, lane int, trace int64, acc *layerAcc, c cell, want *sim.Result, took time.Duration) error {
	got, traced, err := replicaCell(rec, lane, trace, acc, c)
	if err != nil {
		return err
	}
	acc.mu.Lock()
	defer acc.mu.Unlock()
	acc.untraced += took
	acc.ratios = append(acc.ratios, float64(traced)/float64(took))
	if got != countsOf(want) {
		acc.mismatches++
		fmt.Fprintf(os.Stderr, "pipebench: replica of %v diverged: got %+v, want %+v\n", c, got, countsOf(want))
	}
	return nil
}

// overheadPct is the tracing overhead over the replayed cells: the median
// of each cell's traced time over its untraced time, less one. Per-cell
// ratios keep host drift between the two runs of a cell out of it.
func (a *layerAcc) overheadPct() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return 100 * (median(a.ratios) - 1)
}

// report puts the per-layer metrics of the replayed cells: host time per
// phase from the self time of the phase spans in spans, and the counts.
func (a *layerAcc) report(spans []span, put func(name string, v float64)) {
	var ns, calls, work [numPhases]int64
	var cellNs int64
	phase := map[string]int{}
	for ph, name := range phaseNames {
		phase[name] = ph
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Name == "sim.cell" {
			cellNs += int64(s.End - s.Start)
		} else if ph, ok := phase[s.Name]; ok {
			ns[ph] += int64(self[s.ID])
			calls[ph]++
			work[ph] += s.Count
		}
	}
	per := func(ph int, unit float64) float64 {
		if calls[ph] == 0 {
			return 0
		}
		return float64(ns[ph]) / float64(calls[ph]) / unit
	}
	perWork := func(ph int) float64 {
		if work[ph] == 0 {
			return 0
		}
		return float64(ns[ph]) / float64(work[ph])
	}
	put("sim.new_us", per(phNew, 1e3))
	put("pipeline.warmup_ns_per_inst", perWork(phWarmup))
	put("pipeline.cycle_ns", perWork(phCycles))
	put("power.drain_ns", per(phDrain, 1))
	put("thermal.advance_us", per(phAdvance, 1e3))
	put("thermal.warmstart_us", per(phWarmStart, 1e3))
	put("core.control_ns", per(phControl, 1))
	put("pipeline.cycles", float64(work[phCycles]))
	if cellNs > 0 {
		put("pipeline.share_pct", 100*float64(ns[phCycles])/float64(cellNs))
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	var child int64
	for _, n := range ns {
		child += n
	}
	if a.untraced > 0 {
		// The adds-up check: the share of the untraced cells' time that
		// the layer spans of their traced replicas do not account for.
		put("sim.residue_pct", 100*float64(int64(a.untraced)-child)/float64(a.untraced))
	}
	if a.committed > 0 {
		put("pipeline.ns_per_inst", float64(ns[phCycles])/float64(a.committed))
	}
	put("sim.fidelity_mismatches", float64(a.mismatches))
	put("sim.replica_cells", float64(a.cells))
	put("pipeline.committed", float64(a.committed))
	put("pipeline.fetched", float64(a.fetched))
	put("core.cooling_stalls", float64(a.stalls))
	if a.cycles > 0 {
		put("core.stall_cycle_pct", 100*float64(a.stallCyc)/float64(a.cycles))
	}
}
