// Package thermal implements the RC thermal network used in place of
// HotSpot. Like HotSpot, the model is an electrical analogue: every
// floorplan block is a node with a capacitance to thermal ground, a
// vertical resistance through the die and heat spreader toward the heat
// sink, and lateral resistances to its floorplan neighbours; the sink
// couples to ambient through the package's convection resistance
// (Table 2: 0.8 K/W, 6.9 mm sink).
//
// Two properties of this structure drive the paper's results and are
// preserved here:
//
//  1. Vertical conduction is much stronger than lateral conduction, so
//     adjacent resource copies can sit at substantially different
//     temperatures (§1, §4.2's 4 K spread across neighbouring ALUs).
//  2. The network is linear, so time can be rescaled: scaling all
//     capacitances by 1/s speeds every transient by s without moving any
//     steady state. The simulator exploits this (config.ThermalAccel) to
//     reproduce 120 ms of paper-time heating in few-million-cycle runs.
//
// The conductance graph is built once in CSR form. One explicit-Euler
// integrator walks its nonzeros for every transient, at every network
// size, without allocating. Steady states (WarmStart, SteadyState) are
// solved by size alone: Gaussian elimination up to gaussMaxNodes nodes,
// which covers every paper floorplan and a two-core tiled die, and
// Jacobi-preconditioned conjugate gradient above it (cg.go).
package thermal

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/config"
	"repro/internal/floorplan"
)

// Physical constants. Conductivity of silicon is taken at operating
// temperature (~350 K); the spreader and sink are copper.
const (
	KSilicon     = 100.0  // W/(m·K)
	KCopper      = 400.0  // W/(m·K)
	CvSilicon    = 1.75e6 // J/(m³·K) volumetric heat capacity
	CvCopper     = 3.55e6 // J/(m³·K)
	DieThickness = 0.5e-3 // m
	// SpreaderThickness and SpreaderSide describe the copper heat
	// spreader between die and sink.
	SpreaderThickness = 1.0e-3  // m
	SpreaderSide      = 30.0e-3 // m
	// SinkSide is the heat-sink base plate edge length; its thickness
	// comes from config (Table 2: 6.9 mm).
	SinkSide = 60.0e-3 // m
	// SpreaderSinkRes is the lumped interface resistance between the
	// spreader and sink base.
	SpreaderSinkRes = 0.05 // K/W
	// LateralConstriction derates block-to-block lateral conductances for
	// boundary constriction (see New).
	LateralConstriction = 0.18
)

// gaussMaxNodes is the largest network (blocks + spreader + sink) whose
// steady state is solved by Gaussian elimination; larger networks use
// conjugate gradient. Elimination is exact to rounding and cheap at this
// size. CG lands within ~1e-12 K of it but not on the same bits, and the
// warm start feeds every later temperature, so moving the paper plans
// (28 nodes) or a two-core tiled die (54 nodes) onto CG would change
// canonical result bytes and the benchmark's pinned digests.
const gaussMaxNodes = 64

// Model is the thermal network. Node layout: nodes 0..N-1 are floorplan
// blocks, node N is the heat spreader, node N+1 is the heat sink. Ambient
// is a fixed-temperature boundary attached to the sink.
type Model struct {
	plan    *floorplan.Plan
	n       int // number of block nodes
	nTotal  int // blocks + spreader + sink
	ambient float64

	// CSR form of the symmetric conductance graph: row i's neighbours are
	// colIdx[rowPtr[i]:rowPtr[i+1]] in ascending column order with
	// conductances in gval.
	rowPtr []int32
	colIdx []int32
	gval   []float64

	gAmb []float64 // gAmb[i] couples node i to ambient
	c    []float64 // capacitance per node
	t    []float64 // current temperature per node

	maxStable float64 // largest stable Euler step

	dT []float64 // integration scratch (no per-step alloc)
	cg cgScratch // CG steady-state scratch (lazily sized)

	// AdvanceCalls counts integration calls (for tests/telemetry).
	AdvanceCalls uint64
}

// New builds the network for a floorplan under the given package
// configuration. Initial temperatures are ambient everywhere; call
// WarmStart (or SetTemps) to begin from a steady state.
func New(plan *floorplan.Plan, cfg *config.Config) *Model {
	n := plan.NumBlocks()
	nTotal := n + 2
	m := &Model{
		plan:    plan,
		n:       n,
		nTotal:  nTotal,
		ambient: cfg.AmbientK,
		gAmb:    make([]float64, nTotal),
		c:       make([]float64, nTotal),
		t:       make([]float64, nTotal),
		dT:      make([]float64, nTotal),
	}
	spreader, sink := n, n+1

	// Conductance edges, each recorded once per unordered pair.
	type edge struct {
		a, b int
		g    float64
	}
	edges := make([]edge, 0, n+len(plan.Adj)+1)

	for i, b := range plan.Blocks {
		area := b.Area()
		// Vertical path: half the die thickness of silicon (heat is
		// generated at the active layer) plus the spreading resistance
		// into the copper, both inversely proportional to block area.
		rv := DieThickness/(KSilicon*area) + SpreaderThickness/(KCopper*area)/2
		edges = append(edges, edge{i, spreader, 1 / rv})
		m.c[i] = CvSilicon * area * DieThickness
	}
	// Lateral conduction between floorplan neighbours: a silicon bar of
	// cross-section (die thickness × shared edge) and length equal to the
	// center-to-center distance, derated by a constriction factor — heat
	// entering a block's edge spreads through a constricted cross-section
	// near the boundary, which HotSpot captures with spreading-resistance
	// corrections. Without it, narrow blocks short together laterally and
	// the per-copy temperature differences the paper reports (e.g. >4 K
	// across adjacent ALUs, §4.2) cannot form.
	for _, adj := range plan.Adj {
		gl := LateralConstriction * KSilicon * DieThickness * adj.Shared / adj.Dist
		edges = append(edges, edge{adj.A, adj.B, gl})
	}

	// Spreader and sink lumps.
	m.c[spreader] = CvCopper * SpreaderSide * SpreaderSide * SpreaderThickness
	sinkThick := cfg.HeatsinkThicknessMM * 1e-3
	m.c[sink] = CvCopper * SinkSide * SinkSide * sinkThick
	edges = append(edges, edge{spreader, sink, 1 / SpreaderSinkRes})
	m.gAmb[sink] = 1 / cfg.ConvectionRes

	// Assemble the CSR rows: bucket both directions of every edge, sort
	// each row by column (stable, so duplicate records — which no current
	// plan produces — would merge in insertion order), then merge.
	type entry struct {
		col int32
		g   float64
	}
	rows := make([][]entry, nTotal)
	for _, e := range edges {
		rows[e.a] = append(rows[e.a], entry{int32(e.b), e.g})
		rows[e.b] = append(rows[e.b], entry{int32(e.a), e.g})
	}
	m.rowPtr = make([]int32, nTotal+1)
	for i, row := range rows {
		sort.SliceStable(row, func(a, b int) bool { return row[a].col < row[b].col })
		merged := row[:0]
		for _, e := range row {
			if k := len(merged); k > 0 && merged[k-1].col == e.col {
				merged[k-1].g += e.g
			} else {
				merged = append(merged, e)
			}
		}
		rows[i] = merged
		m.rowPtr[i+1] = m.rowPtr[i] + int32(len(merged))
	}
	nnz := m.rowPtr[nTotal]
	m.colIdx = make([]int32, nnz)
	m.gval = make([]float64, nnz)
	for i, row := range rows {
		base := m.rowPtr[i]
		for k, e := range row {
			m.colIdx[base+int32(k)] = e.col
			m.gval[base+int32(k)] = e.g
		}
	}

	for i := range m.t {
		m.t[i] = cfg.AmbientK
	}
	m.maxStable = m.computeMaxStable()
	return m
}

// computeMaxStable derives the explicit-Euler stability bound from the
// fastest node time constant.
func (m *Model) computeMaxStable() float64 {
	minTau := math.Inf(1)
	for i := 0; i < m.nTotal; i++ {
		sum := m.gAmb[i]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			sum += m.gval[k]
		}
		if sum > 0 {
			if tau := m.c[i] / sum; tau < minTau {
				minTau = tau
			}
		}
	}
	return minTau / 2 // explicit Euler stability with margin
}

// NumBlocks returns the number of floorplan block nodes.
func (m *Model) NumBlocks() int { return m.n }

// Temp returns the current temperature of block i in kelvin.
func (m *Model) Temp(i int) float64 { return m.t[i] }

// TempByName returns the temperature of the named floorplan block.
func (m *Model) TempByName(name string) float64 {
	return m.t[m.plan.Index(name)]
}

// Temps copies the block temperatures into dst (allocating if nil) and
// returns it. Spreader and sink temperatures are not included.
func (m *Model) Temps(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.n)
	}
	copy(dst, m.t[:m.n])
	return dst
}

// SinkTemp returns the heat-sink temperature.
func (m *Model) SinkTemp() float64 { return m.t[m.n+1] }

// SetTemps sets the block temperatures (length must equal NumBlocks);
// spreader and sink are left unchanged.
func (m *Model) SetTemps(ts []float64) {
	if len(ts) != m.n {
		panic(fmt.Sprintf("thermal: SetTemps with %d values for %d blocks", len(ts), m.n))
	}
	copy(m.t[:m.n], ts)
}

// MaxStableStep returns the largest stable explicit-integration substep in
// seconds. Advance subdivides automatically; this is exported for tests.
func (m *Model) MaxStableStep() float64 { return m.maxStable }

// Advance integrates the network forward by the given thermal-time
// duration with the given per-block power (watts, length NumBlocks). The
// step is internally subdivided for stability.
func (m *Model) Advance(power []float64, seconds float64) {
	if len(power) != m.n {
		panic(fmt.Sprintf("thermal: Advance with %d powers for %d blocks", len(power), m.n))
	}
	if seconds <= 0 {
		return
	}
	m.AdvanceCalls++
	steps := int(seconds/m.maxStable) + 1
	dt := seconds / float64(steps)
	for s := 0; s < steps; s++ {
		m.step(power, dt)
	}
}

// step is one Euler substep:
//
//	dT_i = dt/C_i * (P_i + sum_j G_ij (T_j - T_i) + G_amb (T_amb - T_i))
//
// It visits each row's nonzeros in ascending column order, the same
// terms in the same order as the historical dense loop over every node
// pair, so the two agree bit for bit; the differential suite keeps that
// loop as its oracle.
func (m *Model) step(power []float64, dt float64) {
	d := m.dT
	for i := 0; i < m.nTotal; i++ {
		flow := 0.0
		ti := m.t[i]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			flow += m.gval[k] * (m.t[m.colIdx[k]] - ti)
		}
		if m.gAmb[i] != 0 {
			flow += m.gAmb[i] * (m.ambient - ti)
		}
		if i < m.n {
			flow += power[i]
		}
		d[i] = dt / m.c[i] * flow
	}
	for i := 0; i < m.nTotal; i++ {
		m.t[i] += d[i]
	}
}

// SteadyState solves for the equilibrium temperatures under constant
// per-block power and returns them (block nodes only). The model's current
// temperatures are not modified.
func (m *Model) SteadyState(power []float64) []float64 {
	out := make([]float64, m.n)
	copy(out, m.solveSteady(power))
	return out
}

// WarmStart sets all node temperatures to the steady state for the given
// per-block power. This mirrors HotSpot's standard practice of
// initializing from the steady-state solution of the average power trace.
func (m *Model) WarmStart(power []float64) {
	copy(m.t, m.solveSteady(power))
}

// WarmStartBelow warm-starts the network from the steady state for the
// given power and then, if that steady state would start any block at
// or above limit, scales every block's rise over ambient so the
// hottest starts at limit — a physical system under thermal management
// can never have gotten hotter.
func (m *Model) WarmStartBelow(power []float64, limit float64) {
	m.WarmStart(power)
	blocks := m.t[:m.n]
	maxT := 0.0
	for _, t := range blocks {
		if t > maxT {
			maxT = t
		}
	}
	if maxT < limit {
		return
	}
	scale := (limit - m.ambient) / (maxT - m.ambient)
	for i, t := range blocks {
		blocks[i] = m.ambient + (t-m.ambient)*scale
	}
}

// solveSteady returns the equilibrium of every node (blocks, spreader,
// sink) under the given per-block power, choosing the solver by network
// size (see gaussMaxNodes). The result may alias model scratch.
func (m *Model) solveSteady(power []float64) []float64 {
	if len(power) != m.n {
		panic(fmt.Sprintf("thermal: steady state with %d powers for %d blocks", len(power), m.n))
	}
	if m.nTotal > gaussMaxNodes {
		return m.solveCG(power)
	}
	return m.solveGauss(power)
}

// solveGauss returns the steady state of every node by Gaussian
// elimination on the dense system A·T = b, where A is the conductance
// Laplacian plus ambient coupling and b is power plus ambient inflow.
func (m *Model) solveGauss(power []float64) []float64 {
	nt := m.nTotal
	a := make([][]float64, nt)
	b := make([]float64, nt)
	for i := 0; i < nt; i++ {
		a[i] = make([]float64, nt)
		diag := m.gAmb[i]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			a[i][m.colIdx[k]] = -m.gval[k]
			diag += m.gval[k]
		}
		a[i][i] = diag
		b[i] = m.gAmb[i] * m.ambient
		if i < m.n {
			b[i] += power[i]
		}
	}
	solveInPlace(a, b)
	return b
}

// solveInPlace performs Gaussian elimination with partial pivoting on the
// dense system a·x = b, leaving x in b.
func solveInPlace(a [][]float64, b []float64) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		piv := a[col][col]
		if piv == 0 {
			panic("thermal: singular conductance matrix")
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / piv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * b[c]
		}
		b[r] = sum / a[r][r]
	}
}

// conductance returns the direct conductance between nodes i and j (0 if
// not coupled) via binary search in row i's CSR columns.
func (m *Model) conductance(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := m.colIdx[mid]; {
		case c == int32(j):
			return m.gval[mid]
		case c < int32(j):
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// VerticalResistance returns the block-to-spreader thermal resistance of
// block i (K/W); exported for calibration and tests.
func (m *Model) VerticalResistance(i int) float64 {
	return 1 / m.conductance(i, m.n)
}

// LateralConductance returns the direct block-to-block conductance between
// blocks i and j (0 if not adjacent).
func (m *Model) LateralConductance(i, j int) float64 { return m.conductance(i, j) }

// ScaleCapacitances multiplies every node capacitance by f, rescaling all
// transients by 1/f without changing any steady state. The simulator uses
// this to implement config.ThermalAccel: rather than tracking two time
// axes, capacitances shrink so that cycle-time integration directly yields
// accelerated dynamics. (Equivalently one can pass pre-scaled durations to
// Advance; both paths are exercised in tests.)
func (m *Model) ScaleCapacitances(f float64) {
	if f <= 0 {
		panic("thermal: non-positive capacitance scale")
	}
	for i := range m.c {
		m.c[i] *= f
	}
	m.maxStable = m.computeMaxStable()
}
