package trace

import (
	"repro/internal/isa"
	"repro/internal/rng"
)

// Generator produces a deterministic dynamic instruction stream for a
// profile. The same (profile, seed) always yields the same stream, so
// different machine configurations can be compared on identical work.
type Generator struct {
	prof Profile
	// r is the draw source. Every draw's count and position in the stream
	// is part of the trace contract, which TestGeneratorDrawOrderPinned
	// pins end to end.
	r *rng.Source

	seq     uint64
	pc      uint64
	nextReg int

	// lastDest[k] is the destination register of dynamic instruction
	// seq-1-k (bounded history) for dependency-distance sourcing, split by
	// register file.
	intHist []int8
	fpHist  []int8

	// Memory cursors.
	coldPtr uint64

	// Branch sites: per-site PC, bias class, fixed target. Sites are
	// visited mostly in cursor order (code loops over its branches),
	// which gives the global branch history the correlation a real
	// program's history has; a fraction of visits jump randomly.
	sitePCs     []uint64
	siteBias    []float64
	siteTargets []uint64
	siteCursor  int

	// Phase state. Each phase draws its own intensity multiplier so that
	// burst peaks vary run-to-run the way real program phases do; thermal
	// crossings then become occasional and marginal rather than
	// all-or-nothing.
	phaseLeft  int
	inBurst    bool
	phaseScale float64

	// Cumulative op-class thresholds in rng.Threshold's integer domain,
	// hoisted from the per-instruction switch. Each encodes the
	// corresponding left-to-right sum of profile fractions, so comparing
	// the 53-bit draw against them is bit-identical to the float
	// comparisons over the inline sums.
	tLoad, tStore, tBranch, tFPAdd, tFPMul, tIntMul uint64

	// Memory-region thresholds (ColdFrac, then ColdFrac+WarmFrac — the
	// same left-to-right sum memAddr's switch used to compute).
	tCold, tColdWarm uint64

	// Per-branch-site taken thresholds (rng.Threshold of siteBias), plus
	// the fixed cursor-advance threshold (0.9) and FP-load threshold.
	tSiteBias []uint64
	tCursor   uint64
	tLoadFP   uint64

	// Cached geometric-trial thresholds for the value- and
	// address-dependency distances (rng.GeometricThreshold of depDist()
	// and depDist()*AddrDepFactor). They change only at phase
	// transitions; caching hoists a float division out of every source
	// register draw.
	tDep, tAddr uint64

	// Divisors that map a raw draw to an index: the working-set word
	// counts (memAddr) and the branch-site count. Reducing a draw with
	// `%` is what rng.Intn does for the same bound.
	warmWords, hotWords, sites uint64

	// Decoded-instruction ring: refill generates genBatch instructions in
	// one tight pass (same rng draw order as one-at-a-time generation, so
	// the stream is byte-identical), and Peek/Advance hand them out
	// without copying. burst records each slot's phase so InBurst tracks
	// the consumed instruction, not the read-ahead.
	buf       [genBatch]isa.Inst
	burst     [genBatch]bool
	bufPos    int
	bufLen    int
	lastBurst bool
}

// genBatch is the decoded-op ring size: large enough to amortize refill
// overhead, small enough that read-ahead stays a fraction of a sensor
// interval.
const genBatch = 64

const (
	histLen   = 64           // register-history ring; must stay a power of two (indexed by & (histLen-1))
	hotBase   = isa.HotBase  // dense hot region in isa.State
	warmBase  = isa.WarmBase // dense warm region in isa.State
	codeBase  = 0x0040_0000
	lineBytes = 64
)

// ColdBase is the start of the streaming ("cold") address region. Cache
// warmup must not touch addresses at or above ColdBase: the stream is
// compulsory-miss traffic by construction, and a warmed stream would
// replay as hits. It equals isa.StreamBase so the architectural memory
// image stores the stream densely.
const ColdBase uint64 = isa.StreamBase

// NewGenerator builds a generator for the profile, seeded from the
// profile's own seed (deterministic across runs).
func NewGenerator(p Profile) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		prof:      p,
		r:         rng.New(p.Seed),
		intHist:   make([]int8, histLen),
		fpHist:    make([]int8, histLen),
		warmWords: uint64(p.WarmSetBytes / 8),
		hotWords:  uint64(p.HotSetBytes / 8),
		sites:     uint64(p.BranchSites),
	}
	for i := range g.intHist {
		g.intHist[i] = int8(i % isa.NumIntRegs)
		g.fpHist[i] = int8(i % isa.NumFPRegs)
	}
	g.sitePCs = make([]uint64, p.BranchSites)
	g.siteBias = make([]float64, p.BranchSites)
	g.siteTargets = make([]uint64, p.BranchSites)
	// Branch sites sit on a regular stride through the code footprint:
	// compiled code spaces its branches roughly evenly, and the stride
	// keeps distinct sites from colliding in the predictor's PC-indexed
	// tables, which random placement would force at a high rate.
	stride := p.CodeFootprint / p.BranchSites
	stride -= stride % 4
	if stride < 8 {
		stride = 8
	}
	// An odd instruction-slot stride keeps sites from aliasing in any
	// power-of-two-indexed predictor table.
	if (stride/4)%2 == 0 {
		stride += 4
	}
	for i := range g.sitePCs {
		g.sitePCs[i] = codeBase + uint64(i*stride)
		g.siteTargets[i] = g.sitePCs[i] + uint64(4+4*g.r.Intn(64))
		if g.r.Bool(p.BiasedFrac) {
			// Strongly biased site: taken or not-taken dominant.
			if g.r.Bool(p.TakenBias) {
				g.siteBias[i] = 0.985
			} else {
				g.siteBias[i] = 0.015
			}
		} else {
			g.siteBias[i] = 0.5 // unpredictable site
		}
	}
	if p.PhaseLen > 0 {
		g.phaseLeft = p.PhaseLen
	}
	g.phaseScale = 1
	cLoad := p.FracLoad
	cStore := cLoad + p.FracStore
	cBranch := cStore + p.FracBranch
	cFPAdd := cBranch + p.FracFPAdd
	cFPMul := cFPAdd + p.FracFPMul
	g.tLoad = rng.Threshold(cLoad)
	g.tStore = rng.Threshold(cStore)
	g.tBranch = rng.Threshold(cBranch)
	g.tFPAdd = rng.Threshold(cFPAdd)
	g.tFPMul = rng.Threshold(cFPMul)
	g.tIntMul = rng.Threshold(cFPMul + p.FracIntMul)
	g.tCold = rng.Threshold(p.ColdFrac)
	g.tColdWarm = rng.Threshold(p.ColdFrac + p.WarmFrac)
	g.tSiteBias = make([]uint64, len(g.siteBias))
	for i, b := range g.siteBias {
		g.tSiteBias[i] = rng.Threshold(b)
	}
	g.tCursor = rng.Threshold(0.9)
	g.tLoadFP = rng.Threshold(p.FracLoadFP)
	g.refreshDepThresholds()
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// depDist returns the current mean dependency distance, honoring phases.
// The per-phase intensity multiplier scales the burst distance, so
// successive bursts have different depths.
func (g *Generator) depDist() float64 {
	if g.prof.PhaseLen > 0 && g.inBurst {
		d := g.prof.BurstDepDist * g.phaseScale
		if d < 1 {
			d = 1
		}
		return d
	}
	return g.prof.DepDist
}

// refreshDepThresholds recomputes the cached geometric-trial thresholds
// from the current phase state. Must be called whenever depDist()'s inputs
// change (construction and phase transitions).
func (g *Generator) refreshDepThresholds() {
	d := g.depDist()
	g.tDep = rng.GeometricThreshold(d)
	g.tAddr = rng.GeometricThreshold(d * g.prof.AddrDepFactor)
}

// srcReg picks a source register at a geometric dependency distance from
// the history of the given register file.
func (g *Generator) srcReg(hist []int8) int8 {
	return g.histAt(hist, g.r.GeometricT(g.tDep))
}

// addrReg picks a memory-operation base register at the profile's
// address-dependency distance (typically much older than value operands).
func (g *Generator) addrReg() int8 {
	return g.histAt(g.intHist, g.r.GeometricT(g.tAddr))
}

func (g *Generator) histAt(hist []int8, d int) int8 {
	if d > histLen {
		d = histLen
	}
	return hist[(int(g.seq)+histLen-d)&(histLen-1)]
}

// Register-file sizes must be powers of two so destReg's round-robin
// wrap is a mask rather than a divide on the per-instruction path.
var (
	_ [0]struct{} = [isa.NumIntRegs & (isa.NumIntRegs - 1)]struct{}{}
	_ [0]struct{} = [isa.NumFPRegs & (isa.NumFPRegs - 1)]struct{}{}
)

// destReg allocates the next destination register round-robin, recording
// it in the history ring.
func (g *Generator) destReg(hist []int8, nregs int) int8 {
	g.nextReg++
	reg := int8(g.nextReg & (nregs - 1)) // nregs is a power of two (asserted above)
	hist[int(g.seq)&(histLen-1)] = reg
	return reg
}

// carryHistories keeps BOTH register-history rings current for the slot of
// the instruction just generated: a ring slot not written by a destination
// this instruction carries the previous slot's register forward. Without
// this, dependency distances in the less-active register file dereference
// stale ring entries and silently stretch (inflating ILP).
func (g *Generator) carryHistories(wroteInt, wroteFP bool) {
	i := int(g.seq) & (histLen - 1)
	prev := (i + histLen - 1) & (histLen - 1)
	if !wroteInt {
		g.intHist[i] = g.intHist[prev]
	}
	if !wroteFP {
		g.fpHist[i] = g.fpHist[prev]
	}
}

// memAddr draws an effective address from the profile's working sets.
func (g *Generator) memAddr() uint64 {
	x := g.r.U53()
	switch {
	case x < g.tCold:
		// Streaming access: advance word by word through memory, so one
		// cache line serves several accesses before the stream misses.
		g.coldPtr += 8
		return ColdBase + g.coldPtr
	case x < g.tColdWarm:
		return warmBase + g.r.Uint64()%g.warmWords*8
	default:
		return hotBase + g.r.Uint64()%g.hotWords*8
	}
}

// Next produces the next dynamic instruction.
func (g *Generator) Next() isa.Inst {
	in := *g.Peek()
	g.Advance()
	return in
}

// Peek returns the next instruction without consuming it. The pointer
// stays valid until the following Advance; the frontend uses it to retry
// dispatch across stall cycles without copying the instruction.
func (g *Generator) Peek() *isa.Inst {
	if g.bufPos == g.bufLen {
		g.refill()
	}
	return &g.buf[g.bufPos]
}

// Advance consumes the instruction last returned by Peek.
func (g *Generator) Advance() {
	g.lastBurst = g.burst[g.bufPos]
	g.bufPos++
}

// refill generates the next genBatch instructions into the ring in one
// pass. The rng is consumed in exactly the per-instruction order, so the
// stream is byte-identical to unbatched generation.
func (g *Generator) refill() {
	for i := range g.buf {
		g.genOne(&g.buf[i])
		g.burst[i] = g.inBurst
	}
	g.bufPos, g.bufLen = 0, genBatch
}

// genOne generates one dynamic instruction into *in.
func (g *Generator) genOne(in *isa.Inst) {
	// Phase bookkeeping.
	if g.prof.PhaseLen > 0 {
		g.phaseLeft--
		if g.phaseLeft <= 0 {
			// Draw the next phase's length (±30%) and intensity
			// (0.6x-1.4x of the nominal burst depth).
			jitter := 0.7 + 0.6*g.r.Float64()
			if g.inBurst {
				g.inBurst = false
				g.phaseLeft = int(float64(g.prof.PhaseLen) * (1 - g.prof.BurstFrac) * jitter)
			} else {
				g.inBurst = true
				g.phaseLeft = int(float64(g.prof.PhaseLen) * g.prof.BurstFrac * jitter)
				g.phaseScale = 0.75 + 0.5*g.r.Float64()
			}
			if g.phaseLeft <= 0 {
				g.phaseLeft = 1
			}
			g.refreshDepThresholds()
		}
	}

	// g.pc is maintained pre-wrapped into [0, CodeFootprint): the +4 stride
	// with a conditional subtract is the same sequence as pc%footprint over
	// a monotonic pc, without the per-instruction division.
	*in = isa.Inst{Seq: g.seq, PC: codeBase + g.pc}
	g.pc += 4
	for g.pc >= uint64(g.prof.CodeFootprint) {
		g.pc -= uint64(g.prof.CodeFootprint)
	}

	x := g.r.U53()
	wroteInt, wroteFP := false, false
	switch {
	case x < g.tLoad:
		in.Src1 = g.addrReg()
		in.Src2 = isa.NoReg
		in.Addr = g.memAddr()
		if g.r.BoolT(g.tLoadFP) {
			in.Op = isa.OpLoadFP
			in.Dest = g.destReg(g.fpHist, isa.NumFPRegs)
			wroteFP = true
		} else {
			in.Op = isa.OpLoad
			in.Dest = g.destReg(g.intHist, isa.NumIntRegs)
			wroteInt = true
		}
	case x < g.tStore:
		in.Op = isa.OpStore
		in.Src1 = g.addrReg()
		in.Src2 = g.srcReg(g.intHist)
		in.Dest = isa.NoReg
		in.Addr = g.memAddr()
	case x < g.tBranch:
		in.Op = isa.OpBr
		var site int
		if g.r.BoolT(g.tCursor) {
			g.siteCursor++
			if g.siteCursor >= len(g.sitePCs) {
				g.siteCursor = 0
			}
			site = g.siteCursor
		} else {
			site = int(g.r.Uint64() % g.sites)
		}
		in.PC = g.sitePCs[site]
		in.Src1 = g.srcReg(g.intHist)
		in.Src2 = isa.NoReg
		in.Dest = isa.NoReg
		in.Taken = g.r.BoolT(g.tSiteBias[site])
		in.Target = g.siteTargets[site]
	case x < g.tFPAdd:
		in.Op = isa.OpFAdd
		in.Src1 = g.srcReg(g.fpHist)
		in.Src2 = g.srcReg(g.fpHist)
		in.Dest = g.destReg(g.fpHist, isa.NumFPRegs)
		wroteFP = true
	case x < g.tFPMul:
		in.Op = isa.OpFMul
		in.Src1 = g.srcReg(g.fpHist)
		in.Src2 = g.srcReg(g.fpHist)
		in.Dest = g.destReg(g.fpHist, isa.NumFPRegs)
		wroteFP = true
	case x < g.tIntMul:
		in.Op = isa.OpMul
		in.Src1 = g.srcReg(g.intHist)
		in.Src2 = g.srcReg(g.intHist)
		in.Dest = g.destReg(g.intHist, isa.NumIntRegs)
		wroteInt = true
	default:
		// Simple integer ALU op; vary the opcode for dataflow diversity.
		ops := [4]isa.Op{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpAnd}
		in.Op = ops[g.r.Intn(4)]
		in.Src1 = g.srcReg(g.intHist)
		in.Src2 = g.srcReg(g.intHist)
		in.Dest = g.destReg(g.intHist, isa.NumIntRegs)
		wroteInt = true
	}

	g.carryHistories(wroteInt, wroteFP)
	g.seq++
}

// Generate appends n instructions to dst and returns it.
func (g *Generator) Generate(n int, dst []isa.Inst) []isa.Inst {
	for i := 0; i < n; i++ {
		dst = append(dst, g.Next())
	}
	return dst
}

// InBurst reports whether the most recently consumed instruction (via
// Next or Advance) was generated in a burst phase; false before any
// instruction. The ring generates ahead of consumption, so this tracks
// the consumed position, not the generator's internal phase.
func (g *Generator) InBurst() bool { return g.lastBurst }
