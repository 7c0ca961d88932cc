// Package core implements the paper's contribution: a dynamic thermal
// manager that balances asymmetric utilization inside back-end pipeline
// resources, avoiding performance-destroying global stalls.
//
// The manager samples on-chip temperature sensors every sensor interval
// (§3: 100 k cycles, well under the ms-scale thermal time constants) and
// applies three spatial techniques:
//
//   - Activity toggling (§2.1): when the temperature difference between an
//     issue queue's two physical halves exceeds 0.5 K with the hot half on
//     the high-activity (tail) side, the queue's head/tail configuration
//     toggles between bottom-of-queue and middle-of-queue modes.
//   - Fine-grain ALU turnoff (§2.2): an execution unit at the thermal
//     threshold is marked busy so its select tree grants nothing and work
//     flows to cooler units; it resumes below a hysteresis margin.
//   - Register-file copy turnoff (§2.3): an overheated copy is disabled by
//     marking busy the ALUs whose read ports are wired to it; writes
//     follow the configured staleness policy.
//
// When a technique cannot contain an overheat — an issue-queue half at the
// threshold, every unit of a class hot, every register-file copy off, or a
// resource without copies — the manager falls back to the temporal
// technique the paper compares against: a full stall for the package's
// 10 ms cooling time (Pentium 4 style).
package core

import (
	"repro/internal/config"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/regfile"
	"repro/internal/rng"
	"repro/internal/thermal"
)

// Manager is the dynamic thermal manager for one simulated core.
type Manager struct {
	cfg  *config.Config
	pipe *pipeline.Pipeline
	th   *thermal.Model

	// Cached block indices.
	intQ0, intQ1, fpQ0, fpQ1 int
	intExec                  []int
	fpAdd                    []int
	fpMul                    int
	intReg                   []int
	fpReg                    int
	nBlocks                  int

	// Per-unit thermal state (separate from register-file-induced
	// busyness so the two causes compose).
	intALUHot []bool
	fpAddHot  []bool
	fpMulHot  bool
	rfOffALU  []bool // int ALUs masked because their RF copy is off

	// Last-seen per-half queue energies for activity detection.
	lastIntE [2]float64
	lastFPE  [2]float64

	dvfsActive bool

	temps []float64
	noise *rng.Source // sensor-noise source (nil when disabled)

	// Statistics.
	Stalls         uint64 // global cooling stalls triggered
	IntToggles     uint64
	FPToggles      uint64
	ALUTurnoffs    uint64 // transitions of a unit into thermal turnoff
	RFCopyTurnoffs uint64 // transitions of an RF copy into turnoff
	HotSamples     uint64 // sensor samples with any block at threshold
	Samples        uint64
	// DVFSEngagements counts transitions into the scaled-clock mode
	// (TemporalDVFS only).
	DVFSEngagements uint64
	// HotCounts tallies, per block, the sensor samples at which the block
	// sat at or above the critical threshold — the stall-attribution
	// diagnostic behind the per-experiment tables.
	HotCounts []uint64
	// StallCauses tallies, per block, the samples where the block both
	// crossed the threshold and could not be tolerated.
	StallCauses []uint64
}

// New builds a manager bound to a pipeline and thermal model sharing the
// same floorplan.
func New(cfg *config.Config, plan *floorplan.Plan, pipe *pipeline.Pipeline, th *thermal.Model) *Manager {
	m := &Manager{
		cfg:         cfg,
		pipe:        pipe,
		th:          th,
		intQ0:       plan.Index(floorplan.IntQ0),
		intQ1:       plan.Index(floorplan.IntQ1),
		fpQ0:        plan.Index(floorplan.FPQ0),
		fpQ1:        plan.Index(floorplan.FPQ1),
		intExec:     plan.IntExecBlocks(cfg.IntALUs),
		fpAdd:       plan.FPAddBlocks(cfg.FPAdders),
		fpMul:       plan.Index(floorplan.FPMul),
		intReg:      make([]int, cfg.IntRFCopies),
		fpReg:       plan.Index(floorplan.FPReg),
		nBlocks:     plan.NumBlocks(),
		intALUHot:   make([]bool, cfg.IntALUs),
		fpAddHot:    make([]bool, cfg.FPAdders),
		rfOffALU:    make([]bool, cfg.IntALUs),
		temps:       make([]float64, plan.NumBlocks()),
		HotCounts:   make([]uint64, plan.NumBlocks()),
		StallCauses: make([]uint64, plan.NumBlocks()),
	}
	for c := 0; c < cfg.IntRFCopies; c++ {
		m.intReg[c] = plan.Index(floorplan.IntReg(c))
	}
	if cfg.SensorNoiseK > 0 {
		m.noise = rng.New(0x5e9507)
	}
	return m
}

// Control runs one sensor sample: it reads temperatures, applies the
// configured techniques, and returns the number of cycles the core must
// stall globally (0 if execution may continue).
func (m *Manager) Control() int {
	m.Samples++
	m.th.Temps(m.temps)
	if m.noise != nil {
		// The manager acts on SENSED temperatures; physical temperatures
		// in the thermal model are untouched.
		amp := m.cfg.SensorNoiseK
		for b := range m.temps {
			m.temps[b] += amp * (2*m.noise.Float64() - 1)
		}
	}

	if m.cfg.Techniques.IQ == config.IQToggle {
		m.toggleQueues()
	}
	if m.cfg.Techniques.ALU != config.ALUBase {
		m.aluTurnoff()
	}
	if m.cfg.Techniques.RFTurnoff {
		m.rfTurnoff()
	}
	m.applyBusy()

	need := m.mustStall()
	if m.cfg.Techniques.Temporal == config.TemporalDVFS {
		m.updateDVFS(need)
		return 0
	}
	if need {
		m.Stalls++
		return m.cfg.CoolingCycles()
	}
	return 0
}

// updateDVFS drives the scaled-clock mode: engage when the spatial
// techniques run out, disengage once every block has cooled below the
// hysteresis point.
func (m *Manager) updateDVFS(need bool) {
	if !m.dvfsActive {
		if need {
			m.dvfsActive = true
			m.DVFSEngagements++
		}
		return
	}
	resume := m.cfg.MaxTempK - m.cfg.TurnoffHysteresisK
	for b := 0; b < m.nBlocks; b++ {
		if m.temps[b] > resume {
			return // still hot somewhere: stay slow
		}
	}
	m.dvfsActive = false
}

// DVFSActive reports whether the core is currently running at the divided
// clock.
func (m *Manager) DVFSActive() bool { return m.dvfsActive }

// toggleQueues applies activity toggling to both issue queues: when the
// half currently receiving more compaction activity is also hotter than
// the other half by the threshold, the head moves. Keying the decision on
// measured activity (not temperature alone) keeps the controller from
// oscillating: right after a toggle the old hot half is still hotter, but
// it is no longer the active one, so no immediate toggle-back occurs.
func (m *Manager) toggleQueues() {
	thr := m.cfg.ToggleThresholdK

	e0, e1 := m.pipe.IntQueue().EnergyTotals()
	if m.shouldToggle(e0-m.lastIntE[0], e1-m.lastIntE[1], m.temps[m.intQ0], m.temps[m.intQ1], thr) {
		m.pipe.IntQueue().Toggle()
		m.IntToggles++
	}
	m.lastIntE[0], m.lastIntE[1] = e0, e1

	f0, f1 := m.pipe.FPQueue().EnergyTotals()
	if m.shouldToggle(f0-m.lastFPE[0], f1-m.lastFPE[1], m.temps[m.fpQ0], m.temps[m.fpQ1], thr) {
		m.pipe.FPQueue().Toggle()
		m.FPToggles++
	}
	m.lastFPE[0], m.lastFPE[1] = f0, f1
}

// shouldToggle reports whether the actively heated half (higher energy
// deposit over the last interval) is hotter than the other by thr.
func (m *Manager) shouldToggle(de0, de1, t0, t1, thr float64) bool {
	if de0 > de1 {
		return t0-t1 > thr
	}
	return t1-t0 > thr
}

// aluTurnoff updates the per-unit thermal busy state: units at the
// threshold turn off; turned-off units resume below the hysteresis margin.
func (m *Manager) aluTurnoff() {
	max := m.cfg.MaxTempK
	resume := max - m.cfg.TurnoffHysteresisK
	for i, b := range m.intExec {
		m.updateHot(&m.intALUHot[i], m.temps[b], max, resume)
	}
	for i, b := range m.fpAdd {
		m.updateHot(&m.fpAddHot[i], m.temps[b], max, resume)
	}
	m.updateHot(&m.fpMulHot, m.temps[m.fpMul], max, resume)
}

func (m *Manager) updateHot(hot *bool, t, max, resume float64) {
	switch {
	case !*hot && t >= max:
		*hot = true
		m.ALUTurnoffs++
	case *hot && t <= resume:
		*hot = false
	}
}

// rfTurnoff turns register-file copies off and on, masking and unmasking
// the ALUs wired to each copy.
func (m *Manager) rfTurnoff() {
	rf := m.pipe.RegFile()
	threshold := rf.TurnoffThreshold(m.cfg.MaxTempK, m.cfg.RFWriteMarginK)
	resume := threshold - m.cfg.TurnoffHysteresisK
	for c := 0; c < rf.Copies(); c++ {
		t := m.temps[m.intReg[c]]
		switch {
		case !rf.Off(c) && t >= threshold:
			// Never turn off the last readable copy: integer execution
			// would deadlock without the global-stall decision, which
			// mustStall makes from temperature alone.
			if offCopies(rf) < rf.Copies()-1 {
				rf.SetOff(c, true)
				m.RFCopyTurnoffs++
			}
		case rf.Off(c) && t <= resume:
			rf.SetOff(c, false)
		}
	}
	for a := range m.rfOffALU {
		copyOf := rf.CopyOf(a)
		m.rfOffALU[a] = copyOf >= 0 && rf.Off(copyOf)
	}
}

func offCopies(rf *regfile.File) int {
	n := 0
	for c := 0; c < rf.Copies(); c++ {
		if rf.Off(c) {
			n++
		}
	}
	return n
}

// applyBusy pushes the combined (thermal + register-file) busy state into
// the select trees.
func (m *Manager) applyBusy() {
	ip := m.pipe.IntPool()
	for i := range m.intALUHot {
		ip.SetBusy(i, m.intALUHot[i] || m.rfOffALU[i])
	}
	fa := m.pipe.FPAddPool()
	for i := range m.fpAddHot {
		fa.SetBusy(i, m.fpAddHot[i])
	}
	m.pipe.FPMulPool().SetBusy(0, m.fpMulHot)
}

// mustStall decides whether the temporal fallback is required: some block
// is at the critical threshold and the configured techniques cannot
// tolerate it.
func (m *Manager) mustStall() bool {
	max := m.cfg.MaxTempK
	anyHot := false
	stall := false
	for b := 0; b < m.nBlocks; b++ {
		if m.temps[b] < max {
			continue
		}
		anyHot = true
		m.HotCounts[b]++
		if !m.tolerated(b) {
			m.StallCauses[b]++
			stall = true
		}
	}
	if anyHot {
		m.HotSamples++
	}
	return stall
}

// tolerated reports whether an at-threshold block is contained by a
// spatial technique so execution may continue.
func (m *Manager) tolerated(b int) bool {
	// Execution units: tolerated under fine-grain turnoff while at least
	// one unit of the class remains available.
	if m.cfg.Techniques.ALU != config.ALUBase {
		for _, eb := range m.intExec {
			if eb == b {
				return !m.pipe.IntPool().AllBusy()
			}
		}
		for _, fb := range m.fpAdd {
			if fb == b {
				return !m.pipe.FPAddPool().AllBusy()
			}
		}
		if b == m.fpMul {
			// The lone multiplier has no spare copy, but marking it busy
			// lets it cool while the rest of the core runs; its queue
			// simply backs up.
			return true
		}
	}
	// Register-file copies: tolerated under fine-grain turnoff while a
	// readable copy remains.
	if m.cfg.Techniques.RFTurnoff {
		for c, rb := range m.intReg {
			if rb == b {
				rf := m.pipe.RegFile()
				return rf.Off(c) && !rf.AllOff()
			}
		}
	}
	// Issue-queue halves, the FP register file, caches, and everything
	// else: no spatial slack to exploit once at the threshold.
	return false
}

// TempDiff returns the current temperature difference (tail-region half
// minus head half) of the integer issue queue; used by experiments.
func (m *Manager) TempDiff() float64 {
	m.th.Temps(m.temps)
	if m.pipe.IntQueue().Mode() == 1 {
		return m.temps[m.intQ0] - m.temps[m.intQ1]
	}
	return m.temps[m.intQ1] - m.temps[m.intQ0]
}
