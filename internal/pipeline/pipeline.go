// Package pipeline implements the out-of-order core: a 6-wide machine with
// a 128-entry active list, 64-entry load/store queue, two 32-entry
// compacting issue queues (integer and floating-point), hierarchical
// select trees serialized per functional unit, six integer execution units
// (arithmetic, address-generation and branch capable), four FP adders, an
// FP multiplier, and two integer register-file copies (Table 2).
//
// The model is execution-driven over the synthetic trace: instructions
// carry real register semantics, values flow through renamed physical
// registers, loads forward from older in-flight stores, and the
// architectural result is checkable against an in-order reference
// executor. Control flow is trace-driven: no wrong-path instructions are
// fetched; a mispredicted branch stalls fetch until it resolves plus the
// redirect penalty, the standard trace-driven approximation.
//
// Every structural event increments a slot on the power meter's
// event-count stats bus (see internal/stats): the hot loop does integer
// counter adds only, and the counts×constants→joules conversion happens
// once per sensor interval inside power.Meter.Drain. The issue queues and
// register file register their own slots at the granularity the paper's
// techniques act on (per half / per copy); the drained counts also feed
// the utilization telemetry (Utilization).
package pipeline

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/floorplan"
	"repro/internal/isa"
	"repro/internal/issueq"
	"repro/internal/power"
	"repro/internal/regfile"
	"repro/internal/seltree"
	"repro/internal/stats"
	"repro/internal/trace"
)

type slotState uint8

const (
	slotFree slotState = iota
	slotInQueue
	slotIssued
	slotDone
)

// The per-slot in-flight instruction state lives in rob.go, split into
// parallel hot (robHot) and cold (robCold) arrays inside window.

// storeRef is a snapshot of an unresolved store for disambiguation.
type storeRef struct {
	seq  uint64
	addr uint64
	rob  int32
}

type lsqEntry struct {
	seq  uint64
	addr uint64
	data uint64 // a store's data, once it has executed
}

// completionRing sizes the completion scheduler; it must exceed the
// longest possible operation latency (memory + port queueing).
const completionRing = 2048

// Pipeline is the simulated core. Construct with New; drive with Cycle.
type Pipeline struct {
	cfg   *config.Config
	gen   *trace.Generator
	meter *power.Meter
	mem   *cache.Hierarchy
	bp    *bpred.Predictor

	intQ, fpQ                     *issueq.Queue
	intPool, fpAddPool, fpMulPool *seltree.Pool
	rf                            *regfile.File
	ebus                          *stats.Bus // the meter's event bus

	// Rename state.
	ratInt, ratFP   [isa.NumIntRegs]int16
	physInt, physFP []uint64
	readyInt        []bool
	readyFP         []bool
	freeInt, freeFP []int16

	// Active list (ring).
	rob                window
	committedMem       *isa.State
	cycle              int64
	fetchResume        int64
	mispredictInFlight bool

	// Completion scheduler: intrusive singly-linked lists threaded through
	// cnext (one link word per active-list slot; a slot is scheduled at
	// most once at a time), headed by completionHead[cycle%completionRing].
	// Replaces per-slot []int32 buckets — the whole scheduler is now
	// ring+links (~8.5 KB at the default geometry) instead of ~1 MB of
	// pre-sized bucket capacity, and scheduling is two stores, no append.
	// Within-cycle processing order is immaterial (see completeStage).
	completionHead [completionRing]int32
	cnext          []int32

	// L1D port scheduling.
	portFree []int64

	// Fetch state.
	curLine                             uint64
	lineShift                           uint   // log2(L1LineB); the cache guarantees a power of two
	issueWidth, commitWidth, fetchWidth int    // cached config widths
	maxFetched                          uint64 // fetch budget; 0 = unlimited
	fetchOff                            bool

	// Cached floorplan block indices.
	bIcache, bDcache, bBpred, bITB, bDTB, bLdStQ int
	bIntMap, bFPMap                              int
	bIntQ0, bIntQ1, bFPQ0, bFPQ1                 int
	bFPReg, bFPMulBlk                            int
	bIntExec                                     []int
	bFPAdd                                       []int
	bIntReg                                      []int

	// Event-count slots on the meter's stats bus (see internal/stats).
	sIcache, sITB, sBpred    stats.SlotID
	sIntMap, sFPMap          stats.SlotID
	sLSQ, sDTB, sDcache      stats.SlotID
	sFPRegRead, sFPRegWrite  stats.SlotID
	sFPMulOp                 stats.SlotID
	sIntALU, sIntMul, sFPAdd []stats.SlotID

	// Scratch buffers reused across cycles.
	grantBuf   []seltree.Grant
	unresolved []storeRef

	// Event-driven wakeup state. waitHeadInt/waitHeadFP hold, per
	// physical register, the head token of the intrusive list of entries
	// waiting on it; storeWaitHead holds, per active-list slot of an
	// unresolved store, the head of the list of loads blocked on it.
	// wakeBuf collects the IDs that became ready since the last
	// wakeupStage; it is bounded by the active-list size.
	waitHeadInt   []int32
	waitHeadFP    []int32
	storeWaitHead []int32
	wakeBuf       []int32

	// storeMask tracks which LSQ ring slots hold stores, for the
	// store-forwarding scan (config.Validate caps the LSQ at 64 entries).
	storeMask uint64

	// Statistics.
	Fetched     uint64
	Committed   uint64
	Issued      uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
	StallROB    uint64 // dispatch stalls: active list full
	StallLSQ    uint64
	StallIQ     uint64 // dispatch stalls: issue queue full
}

// New wires up a pipeline for the given configuration, floorplan, power
// meter and instruction source. It returns an error if the configuration
// does not validate or names more units or register-file copies than the
// floorplan has blocks.
func New(cfg *config.Config, plan *floorplan.Plan, meter *power.Meter, gen *trace.Generator) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	// Units are numbered from 0, so the last block of each kind is in the
	// plan exactly when all of them are.
	for _, b := range []string{
		floorplan.IntExec(cfg.IntALUs - 1), floorplan.FPAdd(cfg.FPAdders - 1), floorplan.IntReg(cfg.IntRFCopies - 1),
	} {
		if !plan.Has(b) {
			return nil, fmt.Errorf("pipeline: floorplan %s has no block %s", cfg.Plan, b)
		}
	}
	p := &Pipeline{
		cfg:       cfg,
		gen:       gen,
		meter:     meter,
		mem:       newHierarchy(cfg),
		bp:        bpred.Default(),
		intQ:      issueq.New(cfg.IQEntries, cfg.IssueWidth, cfg.IssueDrainCycles, cfg.ActiveList),
		fpQ:       issueq.New(cfg.IQEntries, cfg.IssueWidth, cfg.IssueDrainCycles, cfg.ActiveList),
		intPool:   seltree.NewPool(cfg.IQEntries, cfg.IntALUs),
		fpAddPool: seltree.NewPool(cfg.IQEntries, cfg.FPAdders),
		fpMulPool: seltree.NewPool(cfg.IQEntries, cfg.FPMuls),
		rf: regfile.New(cfg.IntRFCopies, cfg.IntALUs, cfg.Techniques.RFMap,
			cfg.Techniques.RFWrites, cfg.PhysIntRegs),
		physInt:      make([]uint64, cfg.PhysIntRegs),
		physFP:       make([]uint64, cfg.PhysFPRegs),
		readyInt:     make([]bool, cfg.PhysIntRegs),
		readyFP:      make([]bool, cfg.PhysFPRegs),
		committedMem: isa.NewState(),
		portFree:     make([]int64, cfg.L1Ports),
	}
	p.rob.init(cfg.ActiveList, cfg.LSQEntries)
	// The generator draws hot and warm addresses only inside the
	// profile's working sets, so sizing those regions once here leaves
	// only the stream to grow as the run goes.
	prof := gen.Profile()
	p.committedMem.Reserve(prof.HotSetBytes, prof.WarmSetBytes)

	p.waitHeadInt = make([]int32, cfg.PhysIntRegs)
	p.waitHeadFP = make([]int32, cfg.PhysFPRegs)
	p.storeWaitHead = make([]int32, cfg.ActiveList)
	for i := range p.waitHeadInt {
		p.waitHeadInt[i] = -1
	}
	for i := range p.waitHeadFP {
		p.waitHeadFP[i] = -1
	}
	for i := range p.storeWaitHead {
		p.storeWaitHead[i] = -1
	}
	p.wakeBuf = make([]int32, 0, cfg.ActiveList)

	p.cnext = make([]int32, cfg.ActiveList)
	for i := range p.completionHead {
		p.completionHead[i] = -1
	}

	// Initial rename map: arch register i lives in physical register i,
	// seeded with the reference model's initial values.
	init := isa.NewState()
	for i := 0; i < isa.NumIntRegs; i++ {
		p.ratInt[i] = int16(i)
		p.physInt[i] = init.IntReg[i]
		p.readyInt[i] = true
		p.ratFP[i] = int16(i)
		p.physFP[i] = init.FPReg[i]
		p.readyFP[i] = true
	}
	for r := cfg.PhysIntRegs - 1; r >= isa.NumIntRegs; r-- {
		p.freeInt = append(p.freeInt, int16(r))
	}
	for r := cfg.PhysFPRegs - 1; r >= isa.NumFPRegs; r-- {
		p.freeFP = append(p.freeFP, int16(r))
	}

	// Cache block indices.
	p.bIcache = plan.Index(floorplan.ICache)
	p.bDcache = plan.Index(floorplan.DCache)
	p.bBpred = plan.Index(floorplan.BPred)
	p.bITB = plan.Index(floorplan.ITB)
	p.bDTB = plan.Index(floorplan.DTB)
	p.bLdStQ = plan.Index(floorplan.LdStQ)
	p.bIntMap = plan.Index(floorplan.IntMap)
	p.bFPMap = plan.Index(floorplan.FPMap)
	p.bIntQ0 = plan.Index(floorplan.IntQ0)
	p.bIntQ1 = plan.Index(floorplan.IntQ1)
	p.bFPQ0 = plan.Index(floorplan.FPQ0)
	p.bFPQ1 = plan.Index(floorplan.FPQ1)
	p.bFPReg = plan.Index(floorplan.FPReg)
	p.bFPMulBlk = plan.Index(floorplan.FPMul)
	p.bIntExec = plan.IntExecBlocks(cfg.IntALUs)
	p.bFPAdd = plan.FPAddBlocks(cfg.FPAdders)
	p.bIntReg = make([]int, cfg.IntRFCopies)
	for c := 0; c < cfg.IntRFCopies; c++ {
		p.bIntReg[c] = plan.Index(floorplan.IntReg(c))
	}

	// Register the pipeline's event slots on the meter's bus and rebind
	// the structures that carry their own (the issue queues per half, the
	// register file per copy, the select pools per unit) from their
	// private buses to the meter's, against real floorplan blocks.
	bus := meter.Bus()
	p.ebus = bus
	p.sIcache = bus.Register("icache_access", p.bIcache, power.ICacheAccess)
	p.sITB = bus.Register("itb_access", p.bITB, power.TLBAccess)
	p.sBpred = bus.Register("bpred_access", p.bBpred, power.BpredAccess)
	p.sIntMap = bus.Register("int_rename", p.bIntMap, power.RenameOp)
	p.sFPMap = bus.Register("fp_rename", p.bFPMap, power.RenameOp)
	p.sLSQ = bus.Register("lsq_op", p.bLdStQ, power.LSQOp)
	p.sDTB = bus.Register("dtb_access", p.bDTB, power.TLBAccess)
	p.sDcache = bus.Register("dcache_access", p.bDcache, power.DCacheAccess)
	p.sFPRegRead = bus.Register("fpreg_read", p.bFPReg, power.RFRead)
	p.sFPRegWrite = bus.Register("fpreg_write", p.bFPReg, power.RFWrite)
	p.sFPMulOp = bus.Register("fpmul_op", p.bFPMulBlk, power.FPMulOp)
	p.sIntALU = make([]stats.SlotID, cfg.IntALUs)
	p.sIntMul = make([]stats.SlotID, cfg.IntALUs)
	for u := 0; u < cfg.IntALUs; u++ {
		p.sIntALU[u] = bus.Register(fmt.Sprintf("intalu%d_op", u), p.bIntExec[u], power.IntALUOp)
		p.sIntMul[u] = bus.Register(fmt.Sprintf("intalu%d_mul", u), p.bIntExec[u], power.IntMulOp)
	}
	p.sFPAdd = make([]stats.SlotID, cfg.FPAdders)
	for u := 0; u < cfg.FPAdders; u++ {
		p.sFPAdd[u] = bus.Register(fmt.Sprintf("fpadd%d_op", u), p.bFPAdd[u], power.FPAddOp)
	}
	p.intQ.BindStats(bus, "intq", p.bIntQ0, p.bIntQ1)
	p.fpQ.BindStats(bus, "fpq", p.bFPQ0, p.bFPQ1)
	p.rf.BindStats(bus, p.bIntReg)
	p.intPool.BindStats(bus, "alu", p.bIntExec)
	p.fpAddPool.BindStats(bus, "fpadd", p.bFPAdd)
	fpMulBlocks := make([]int, cfg.FPMuls)
	for u := range fpMulBlocks {
		fpMulBlocks[u] = p.bFPMulBlk
	}
	p.fpMulPool.BindStats(bus, "fpmul", fpMulBlocks)

	if cfg.Techniques.ALU == config.ALURoundRobin {
		p.intPool.SetRoundRobin(true)
		p.fpAddPool.SetRoundRobin(true)
		p.fpMulPool.SetRoundRobin(true)
	}
	if cfg.Techniques.IQ == config.IQNonCompacting {
		p.intQ.SetNonCompacting(true)
		p.fpQ.SetNonCompacting(true)
	}
	p.curLine = ^uint64(0)
	p.lineShift = lineShift(cfg)
	p.issueWidth, p.commitWidth, p.fetchWidth = cfg.IssueWidth, cfg.CommitWidth, cfg.FetchWidth
	return p, nil
}

// Accessors for the thermal manager and experiments.

// IntQueue returns the integer issue queue.
func (p *Pipeline) IntQueue() *issueq.Queue { return p.intQ }

// FPQueue returns the floating-point issue queue.
func (p *Pipeline) FPQueue() *issueq.Queue { return p.fpQ }

// IntPool returns the integer-ALU select-tree pool.
func (p *Pipeline) IntPool() *seltree.Pool { return p.intPool }

// FPAddPool returns the FP-adder select-tree pool.
func (p *Pipeline) FPAddPool() *seltree.Pool { return p.fpAddPool }

// FPMulPool returns the FP-multiplier select-tree pool.
func (p *Pipeline) FPMulPool() *seltree.Pool { return p.fpMulPool }

// RegFile returns the integer register-file copies.
func (p *Pipeline) RegFile() *regfile.File { return p.rf }

// Mem returns the cache hierarchy.
func (p *Pipeline) Mem() *cache.Hierarchy { return p.mem }

// Bpred returns the branch predictor.
func (p *Pipeline) Bpred() *bpred.Predictor { return p.bp }

// Cycles returns the number of active (non-stalled) cycles executed.
func (p *Pipeline) Cycles() int64 { return p.cycle }

// InFlight returns the number of instructions in the active list.
func (p *Pipeline) InFlight() int { return p.rob.count }

// SetFetchLimit caps the number of instructions fetched (0 = unlimited);
// used to run an exact instruction count and then drain.
func (p *Pipeline) SetFetchLimit(n uint64) { p.maxFetched = n }

// SetFetchEnabled pauses or resumes fetch (drain support).
func (p *Pipeline) SetFetchEnabled(on bool) { p.fetchOff = !on }

// Cycle advances the core by one active cycle.
func (p *Pipeline) Cycle() {
	// Select-tree root mode tracks the issue-queue configuration.
	p.intPool.SetPreferTop(p.intQ.Mode() == 1)
	p.fpAddPool.SetPreferTop(p.fpQ.Mode() == 1)
	p.fpMulPool.SetPreferTop(p.fpQ.Mode() == 1)

	p.completeStage()
	p.commitStage()
	p.wakeupStage()
	p.issueStage()
	p.frontendStage()

	p.intQ.Tick()
	p.fpQ.Tick()
	if p.cfg.Techniques.ALU == config.ALURoundRobin {
		p.intPool.Rotate()
		p.fpAddPool.Rotate()
		p.fpMulPool.Rotate()
	}
	p.cycle++
}

// completeStage retires this cycle's finishing executions: results become
// visible, dependants wake, stores resolve, mispredicted branches release
// fetch.
//
// The walk follows the cnext intrusive list, which yields entries in
// reverse scheduling order. Within-cycle order is immaterial: destination
// physical registers are unique per in-flight entry, the queues' ready
// sets are bit masks, waiter lists of distinct registers are disjoint, and
// a load parked on one of several same-address blockers re-checks the
// whole unresolved set when woken — so every interleaving converges to the
// same post-stage state (checked every cycle against the scan predicate in
// wakeup_oracle_test.go, and by the fig6 golden).
func (p *Pipeline) completeStage() {
	slot := uint64(p.cycle) & (completionRing - 1)
	id := p.completionHead[slot]
	if id < 0 {
		return
	}
	p.completionHead[slot] = -1
	intTags, fpTags := 0, 0
	for ; id >= 0; id = p.cnext[id] {
		h := p.rob.hotAt(id)
		c := p.rob.coldAt(id)
		h.state = slotDone
		if h.destPhys >= 0 {
			if h.destFP {
				p.physFP[h.destPhys] = c.value
				p.readyFP[h.destPhys] = true
				fpTags++
				p.ebus.Inc(p.sFPRegWrite)
				if t := p.waitHeadFP[h.destPhys]; t >= 0 {
					p.waitHeadFP[h.destPhys] = -1
					p.wakeRegWaiters(t)
				}
			} else {
				p.physInt[h.destPhys] = c.value
				p.readyInt[h.destPhys] = true
				intTags++
				p.rf.ChargeWrite()
				if t := p.waitHeadInt[h.destPhys]; t >= 0 {
					p.waitHeadInt[h.destPhys] = -1
					p.wakeRegWaiters(t)
				}
			}
		}
		if h.op == isa.OpStore && c.lsqIdx >= 0 {
			p.rob.lsq[c.lsqIdx].data = c.value
			p.removeUnresolved(c.seq)
			p.wakeStoreWaiters(id)
		}
		if c.mispredct {
			p.fetchResume = p.cycle + int64(p.cfg.BranchPenalty)
			p.mispredictInFlight = false
		}
	}
	p.intQ.Broadcast(intTags)
	p.fpQ.Broadcast(fpTags)
}

// commitStage retires completed instructions in program order.
func (p *Pipeline) commitStage() {
	for n := 0; n < p.commitWidth && p.rob.count > 0; n++ {
		head := int32(p.rob.head)
		h := p.rob.hotAt(head)
		if h.state != slotDone {
			return
		}
		c := p.rob.coldAt(head)
		if h.op == isa.OpStore {
			le := &p.rob.lsq[c.lsqIdx]
			p.committedMem.WriteMem(le.addr, le.data)
			p.ebus.Inc(p.sDcache)
		}
		if c.lsqIdx >= 0 {
			p.storeMask &^= 1 << uint(c.lsqIdx)
			if p.rob.lsqHead++; p.rob.lsqHead == len(p.rob.lsq) {
				p.rob.lsqHead = 0
			}
			p.rob.lsqCount--
		}
		if c.prevPhys >= 0 {
			if h.destFP {
				p.freeFP = append(p.freeFP, c.prevPhys)
			} else {
				p.freeInt = append(p.freeInt, c.prevPhys)
			}
		}
		// The active-list slot is about to be recycled: if the issued
		// entry is still in its queue's post-issue drain window, clear it
		// now so the slot ID can be re-dispatched. The Contains guard
		// keeps the already-expired common case call-free.
		if h.fp {
			if p.fpQ.Contains(head) {
				p.fpQ.Remove(head)
			}
		} else if p.intQ.Contains(head) {
			p.intQ.Remove(head)
		}
		h.state = slotFree
		if p.rob.head++; p.rob.head == len(p.rob.hot) {
			p.rob.head = 0
		}
		p.rob.count--
		p.Committed++
	}
}

// wakeupStage marks queue entries whose operands (and memory ordering
// constraints) are satisfied as ready to request selection.
//
// The ready set is computed incrementally — producers mark exactly their
// consumers ready at writeback (wakeRegWaiters/wakeStoreWaiters via
// wakeNow) — so this stage only flushes the born-ready instructions
// dispatch buffered last cycle. The result is the set a per-cycle scan of
// every waiting entry would mark: both observe the register/store state
// as of this cycle's completeStage, and MarkReady order within a cycle
// cannot matter because the ready set is a bit mask.
func (p *Pipeline) wakeupStage() {
	for _, id := range p.wakeBuf {
		if p.rob.hot[id].fp {
			p.fpQ.MarkReady(id)
		} else {
			p.intQ.MarkReady(id)
		}
	}
	p.wakeBuf = p.wakeBuf[:0]
}

// wakeRegWaiters drains the waiter list of a physical register that just
// wrote back, starting from token t (the caller detaches the list head):
// every entry on it has one fewer unready operand, and those reaching zero
// either become ready now or (loads) park on a blocking store's list.
func (p *Pipeline) wakeRegWaiters(t int32) {
	for t >= 0 {
		next := p.rob.wnext[t]
		h := p.rob.hotAt(t >> 1)
		h.waitCnt--
		if h.waitCnt == 0 {
			p.wakeNow(t>>1, h)
		}
		t = next
	}
}

// wakeStoreWaiters drains the list of loads blocked on a store that just
// resolved; each re-checks the (shrunken) unresolved set and either parks
// on another blocking store or becomes ready.
func (p *Pipeline) wakeStoreWaiters(store int32) {
	t := p.storeWaitHead[store]
	p.storeWaitHead[store] = -1
	for t >= 0 {
		next := p.rob.sNext[t]
		p.wakeNow(t, p.rob.hotAt(t))
		t = next
	}
}

// maybeWake is called exactly once each time an entry runs out of unready
// register operands or loses its blocking store: loads re-check memory
// ordering and park on an older unresolved same-address store if one
// remains; everything else joins the next wakeupStage's ready flush.
//
// Only dispatch calls maybeWake: a born-ready instruction dispatched this
// cycle becomes visible to selection at the NEXT cycle's wakeupStage, so
// its readiness must stay buffered.
func (p *Pipeline) maybeWake(id int32, h *robHot) {
	if h.op == isa.OpLoad || h.op == isa.OpLoadFP {
		c := p.rob.coldAt(id)
		if s := p.findBlocker(c.seq, c.addr); s >= 0 {
			p.rob.sNext[id] = p.storeWaitHead[s]
			p.storeWaitHead[s] = id
			return
		}
	}
	p.wakeBuf = append(p.wakeBuf, id)
}

// wakeNow is maybeWake for completion-originated readiness: the ready bit
// lands in the queue immediately instead of round-tripping through wakeBuf.
// Nothing between completeStage and wakeupStage reads the ready masks
// (commitStage only removes already-issued, draining entries), so the
// end-of-cycle state is bit-identical to buffering; only the append/flush
// is skipped.
func (p *Pipeline) wakeNow(id int32, h *robHot) {
	if h.op == isa.OpLoad || h.op == isa.OpLoadFP {
		c := p.rob.coldAt(id)
		if s := p.findBlocker(c.seq, c.addr); s >= 0 {
			p.rob.sNext[id] = p.storeWaitHead[s]
			p.storeWaitHead[s] = id
			return
		}
	}
	if h.fp {
		p.fpQ.MarkReady(id)
	} else {
		p.intQ.MarkReady(id)
	}
}

// findBlocker returns the active-list slot of an unresolved same-address
// store older than seq blocking a load, or -1. The unresolved set is
// maintained incrementally: stores enter it at dispatch (their addresses
// are trace-resolved, so disambiguation is address-precise — the
// perfect-disambiguation assumption common to SimpleScalar-era studies)
// and leave when their data resolves.
func (p *Pipeline) findBlocker(seq, addr uint64) int32 {
	for i := range p.unresolved {
		s := &p.unresolved[i]
		if s.seq < seq && s.addr == addr {
			return s.rob
		}
	}
	return -1
}

// removeUnresolved drops the store with the given sequence number from the
// unresolved set (swap delete; the set is small).
func (p *Pipeline) removeUnresolved(seq uint64) {
	for i := range p.unresolved {
		if p.unresolved[i].seq == seq {
			last := len(p.unresolved) - 1
			p.unresolved[i] = p.unresolved[last]
			p.unresolved = p.unresolved[:last]
			return
		}
	}
}

// issueStage runs the select trees over the ready bit vectors and launches
// granted instructions into execution.
func (p *Pipeline) issueStage() {
	// Split the FP queue's ready entries by target unit class.
	var addMask, mulMask uint64
	for m := p.fpQ.ReadyMask(); m != 0; m &= m - 1 {
		phys := bits.TrailingZeros64(m)
		if p.rob.hot[p.fpQ.IDAt(phys)].op == isa.OpFMul {
			mulMask |= 1 << uint(phys)
		} else {
			addMask |= 1 << uint(phys)
		}
	}

	budget := p.issueWidth
	p.grantBuf = p.grantBuf[:0]
	p.grantBuf = p.intPool.SelectMask(p.intQ.ReadyMask(), p.grantBuf, budget)
	nInt := len(p.grantBuf)
	budget -= nInt
	p.grantBuf = p.fpAddPool.SelectMask(addMask, p.grantBuf, budget)
	nAdd := len(p.grantBuf) - nInt
	budget -= nAdd
	p.grantBuf = p.fpMulPool.SelectMask(mulMask, p.grantBuf, budget)

	// Issue queues do not compact mid-cycle, so physical positions stay
	// valid between select and issue; read the instruction IDs out of the
	// payload here (the mask carries none, as in the hardware).
	for i := range p.grantBuf {
		g := &p.grantBuf[i]
		switch {
		case i < nInt:
			g.ID = p.intQ.IDAt(g.Phys)
			p.issueInt(*g)
		case i < nInt+nAdd:
			g.ID = p.fpQ.IDAt(g.Phys)
			p.issueFPAdd(*g)
		default:
			g.ID = p.fpQ.IDAt(g.Phys)
			p.issueFPMul(*g)
		}
	}
}

func (p *Pipeline) issueInt(g seltree.Grant) {
	h := p.rob.hotAt(g.ID)
	c := p.rob.coldAt(g.ID)
	p.intQ.Issue(g.ID)
	h.state = slotIssued
	h.unit = int8(g.Unit)
	p.Issued++

	// Register reads through this ALU's register-file copy ports.
	ops := 0
	if c.src1Phys >= 0 {
		ops++
	}
	if c.src2Phys >= 0 {
		ops++
	}
	p.rf.ChargeRead(g.Unit, ops)

	var lat int
	switch h.op {
	case isa.OpMul:
		p.ebus.Inc(p.sIntMul[g.Unit])
		c.value = isa.ALUResult(h.op, p.physInt[c.src1Phys], p.physInt[c.src2Phys])
		lat = p.cfg.IntMulLatency
	case isa.OpBr:
		p.ebus.Inc(p.sIntALU[g.Unit])
		p.Branches++
		lat = p.cfg.IntALULatency
	case isa.OpLoad, isa.OpLoadFP:
		p.ebus.Inc(p.sIntALU[g.Unit]) // AGU
		p.ebus.Inc(p.sLSQ)
		p.ebus.Inc(p.sDTB)
		p.Loads++
		lat = p.loadLatency(c.addr)
		c.value = p.loadValue(c.seq, c.addr)
	case isa.OpStore:
		p.ebus.Inc(p.sIntALU[g.Unit]) // AGU + data read
		p.ebus.Inc(p.sLSQ)
		p.ebus.Inc(p.sDTB)
		p.Stores++
		c.value = p.physInt[c.src2Phys]
		lat = p.cfg.IntALULatency
	default:
		p.ebus.Inc(p.sIntALU[g.Unit])
		c.value = isa.ALUResult(h.op, p.physInt[c.src1Phys], p.physInt[c.src2Phys])
		lat = p.cfg.IntALULatency
	}
	p.schedule(g.ID, lat)
}

// loadLatency computes a load's completion latency including AGU, L1D port
// queueing, and the cache/memory access.
func (p *Pipeline) loadLatency(addr uint64) int {
	// Pick the earliest-free L1D port.
	best := 0
	for i := 1; i < len(p.portFree); i++ {
		if p.portFree[i] < p.portFree[best] {
			best = i
		}
	}
	start := p.cycle + int64(p.cfg.IntALULatency)
	if p.portFree[best] > start {
		start = p.portFree[best]
	}
	p.portFree[best] = start + 1
	lat, _ := p.mem.Data(addr)
	p.ebus.Inc(p.sDcache)
	return int(start-p.cycle) + lat
}

// loadValue resolves the load's value: forward from the youngest older
// in-flight store to the same address, else read committed memory. All
// older stores are resolved by the wakeup constraint, so this is exact.
func (p *Pipeline) loadValue(seq, addr uint64) uint64 {
	var (
		bestSeq uint64
		found   bool
		val     uint64
	)
	// Visit only the slots holding stores; picking the max sequence
	// number is order-independent, so mask order equals ring order.
	for m := p.storeMask; m != 0; m &= m - 1 {
		le := &p.rob.lsq[bits.TrailingZeros64(m)]
		if le.seq < seq && le.addr == addr &&
			(!found || le.seq > bestSeq) {
			bestSeq, val, found = le.seq, le.data, true
		}
	}
	if found {
		return val
	}
	return p.committedMem.ReadMem(addr)
}

func (p *Pipeline) issueFPAdd(g seltree.Grant) {
	h := p.rob.hotAt(g.ID)
	c := p.rob.coldAt(g.ID)
	p.fpQ.Issue(g.ID)
	h.state = slotIssued
	h.unit = int8(g.Unit)
	p.Issued++
	p.ebus.Inc(p.sFPAdd[g.Unit])
	p.ebus.IncN(p.sFPRegRead, 2)
	c.value = isa.ALUResult(h.op, p.physFP[c.src1Phys], p.physFP[c.src2Phys])
	p.schedule(g.ID, p.cfg.FPAddLatency)
}

func (p *Pipeline) issueFPMul(g seltree.Grant) {
	h := p.rob.hotAt(g.ID)
	c := p.rob.coldAt(g.ID)
	p.fpQ.Issue(g.ID)
	h.state = slotIssued
	h.unit = int8(g.Unit)
	p.Issued++
	p.ebus.Inc(p.sFPMulOp)
	p.ebus.IncN(p.sFPRegRead, 2)
	c.value = isa.ALUResult(h.op, p.physFP[c.src1Phys], p.physFP[c.src2Phys])
	p.schedule(g.ID, p.cfg.FPMulLatency)
}

// schedule enqueues id for completion lat cycles from now: push onto the
// target slot's intrusive list. Each active-list slot is in flight through
// at most one execution at a time, so its cnext link is free here.
func (p *Pipeline) schedule(id int32, lat int) {
	if lat < 1 {
		lat = 1
	}
	if lat >= completionRing {
		panic(fmt.Sprintf("pipeline: latency %d exceeds completion ring", lat))
	}
	at := uint64(p.cycle+int64(lat)) & (completionRing - 1)
	p.cnext[id] = p.completionHead[at]
	p.completionHead[at] = id
}

// frontendStage fetches, renames and dispatches up to FetchWidth
// instructions.
func (p *Pipeline) frontendStage() {
	if p.fetchOff || p.mispredictInFlight || p.cycle < p.fetchResume {
		return
	}
	for n := 0; n < p.fetchWidth; n++ {
		if p.maxFetched > 0 && p.Fetched >= p.maxFetched {
			return
		}
		// Peek keeps the instruction in the generator's ring across stall
		// returns; it is only consumed (Advance) once dispatched.
		in := p.gen.Peek()

		// Structural resources.
		if p.rob.count >= len(p.rob.hot) {
			p.StallROB++
			return
		}
		if in.Op.IsMem() && p.rob.lsqCount >= len(p.rob.lsq) {
			p.StallLSQ++
			return
		}
		fp := in.Op.IsFP()
		if fp {
			if p.fpQ.Full() {
				p.StallIQ++
				return
			}
		} else if p.intQ.Full() {
			p.StallIQ++
			return
		}
		if in.Op.HasDest() {
			if in.Op.DestIsFP() {
				if len(p.freeFP) == 0 {
					return
				}
			} else if len(p.freeInt) == 0 {
				return
			}
		}

		// Instruction cache: one access per new line.
		line := in.PC >> p.lineShift
		if line != p.curLine {
			p.curLine = line
			lat, lvl := p.mem.Inst(in.PC)
			p.ebus.Inc(p.sIcache)
			p.ebus.Inc(p.sITB)
			if lvl != cache.LevelL1 {
				// Fetch stalls for the miss; resume when the line
				// arrives.
				p.fetchResume = p.cycle + int64(lat)
				return
			}
		}

		// Branch prediction at fetch (trace-driven redirect model).
		endGroup := false
		if in.Op.IsBranch() {
			p.ebus.Inc(p.sBpred)
			p.bp.Predict(in.PC)
			miss := p.bp.Update(in.PC, in.Taken, in.Target)
			if miss {
				p.Mispredicts++
				p.mispredictInFlight = true
				endGroup = true
			} else if in.Taken {
				endGroup = true // taken branch ends the fetch group
			}
		}

		p.dispatch(in, fp)
		p.gen.Advance()
		p.Fetched++
		if endGroup {
			if p.mispredictInFlight {
				// Mark the just-dispatched branch as the redirect source.
				idx := (p.rob.tail + len(p.rob.hot) - 1) % len(p.rob.hot)
				p.rob.cold[idx].mispredct = true
			}
			return
		}
	}
}

// dispatch renames the instruction, allocates active-list/LSQ entries and
// inserts it into its issue queue. Resource availability was checked by
// the caller.
func (p *Pipeline) dispatch(in *isa.Inst, fp bool) {
	idx := int32(p.rob.tail)
	h := p.rob.hotAt(idx)
	c := p.rob.coldAt(idx)
	// Field stores instead of struct literals: a literal builds a temporary
	// and copies it over the slot every dispatch. The wakeup link words
	// (wnext/sNext) need no clearing — they are written at list registration
	// and only read while the entry is on that list.
	h.op = in.Op
	h.state = slotInQueue
	h.fp = fp
	h.destFP = false
	h.unit = 0
	h.destPhys = -1
	c.seq, c.addr = in.Seq, in.Addr
	c.value = 0
	c.prevPhys = -1
	c.src1Phys, c.src2Phys = -1, -1
	c.mispredct = false
	c.lsqIdx = -1

	// Rename sources through the map table of the queue's side (FP loads
	// source their address from the integer file).
	if fp {
		p.ebus.Inc(p.sFPMap)
		if in.Src1 != isa.NoReg {
			c.src1Phys = p.ratFP[in.Src1]
		}
		if in.Src2 != isa.NoReg {
			c.src2Phys = p.ratFP[in.Src2]
		}
	} else {
		p.ebus.Inc(p.sIntMap)
		if in.Src1 != isa.NoReg {
			c.src1Phys = p.ratInt[in.Src1]
		}
		if in.Src2 != isa.NoReg {
			c.src2Phys = p.ratInt[in.Src2]
		}
	}
	if in.Op.HasDest() {
		if in.Op.DestIsFP() {
			newPhys := p.freeFP[len(p.freeFP)-1]
			p.freeFP = p.freeFP[:len(p.freeFP)-1]
			c.prevPhys = p.ratFP[in.Dest]
			h.destPhys = newPhys
			h.destFP = true
			p.ratFP[in.Dest] = newPhys
			p.readyFP[newPhys] = false
		} else {
			newPhys := p.freeInt[len(p.freeInt)-1]
			p.freeInt = p.freeInt[:len(p.freeInt)-1]
			c.prevPhys = p.ratInt[in.Dest]
			h.destPhys = newPhys
			p.ratInt[in.Dest] = newPhys
			p.readyInt[newPhys] = false
		}
	}

	if in.Op.IsMem() {
		l := int32(p.rob.lsqTail)
		p.rob.lsq[l] = lsqEntry{seq: in.Seq, addr: in.Addr}
		if in.Op == isa.OpStore {
			p.unresolved = append(p.unresolved, storeRef{seq: in.Seq, addr: in.Addr, rob: idx})
			p.storeMask |= 1 << uint(l)
		}
		if p.rob.lsqTail++; p.rob.lsqTail == len(p.rob.lsq) {
			p.rob.lsqTail = 0
		}
		p.rob.lsqCount++
		c.lsqIdx = l
		p.ebus.Inc(p.sLSQ)
	}

	if fp {
		p.fpQ.Dispatch(idx)
	} else {
		p.intQ.Dispatch(idx)
	}

	// Event-driven wakeup: register on each unready source register's
	// waiter list; born-ready instructions head straight for the next
	// wakeupStage (possibly via a blocking store's list).
	wc := uint8(0)
	ready := p.readyInt
	heads := p.waitHeadInt
	if fp {
		ready = p.readyFP
		heads = p.waitHeadFP
	}
	if c.src1Phys >= 0 && !ready[c.src1Phys] {
		p.rob.wnext[idx*2] = heads[c.src1Phys]
		heads[c.src1Phys] = idx * 2
		wc++
	}
	if c.src2Phys >= 0 && !ready[c.src2Phys] {
		p.rob.wnext[idx*2+1] = heads[c.src2Phys]
		heads[c.src2Phys] = idx*2 + 1
		wc++
	}
	h.waitCnt = wc
	if wc == 0 {
		p.maybeWake(idx, h)
	}

	if p.rob.tail++; p.rob.tail == len(p.rob.hot) {
		p.rob.tail = 0
	}
	p.rob.count++
}

// Utilization is the resource-usage telemetry derived from the same event
// counters that drive the energy model: how unevenly the paper's three
// structures are being used. Shares are fractions of the structure's total
// activity (they sum to 1 when there is any activity; all-zero otherwise).
type Utilization struct {
	// IntQHalfOcc and FPQHalfOcc are the average per-cycle occupancy of
	// each physical issue-queue half, in entries.
	IntQHalfOcc [2]float64 `json:"intq_half_occupancy"`
	FPQHalfOcc  [2]float64 `json:"fpq_half_occupancy"`
	// ALUGrantShare is each integer ALU's share of all integer grants —
	// the select-priority asymmetry behind Table 5.
	ALUGrantShare []float64 `json:"alu_grant_share"`
	// RFReadShare is each integer register-file copy's share of reads —
	// the port asymmetry behind Table 6.
	RFReadShare []float64 `json:"rf_read_share"`
}

// Utilization reports the lifetime utilization statistics.
func (p *Pipeline) Utilization() Utilization {
	var u Utilization
	if p.cycle > 0 {
		for h := 0; h < 2; h++ {
			u.IntQHalfOcc[h] = float64(p.intQ.HalfOccupied[h]) / float64(p.cycle)
			u.FPQHalfOcc[h] = float64(p.fpQ.HalfOccupied[h]) / float64(p.cycle)
		}
	}
	u.ALUGrantShare = shares(p.intPool.Grants)
	u.RFReadShare = shares(p.rf.Reads)
	return u
}

// shares converts event counts to fractions of their sum.
func shares(counts []uint64) []float64 {
	out := make([]float64, len(counts))
	var tot uint64
	for _, c := range counts {
		tot += c
	}
	if tot == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(tot)
	}
	return out
}

// Drain stops fetch and runs the core until the active list empties,
// returning the number of cycles it took. A drain that exceeds maxCycles
// panics (deadlock guard for tests).
func (p *Pipeline) Drain(maxCycles int) int {
	p.SetFetchEnabled(false)
	n := 0
	for p.rob.count > 0 {
		p.Cycle()
		n++
		if n > maxCycles {
			panic("pipeline: drain did not converge (deadlock)")
		}
	}
	p.SetFetchEnabled(true)
	return n
}

// ArchState reconstructs the committed architectural state (registers via
// the rename map, memory from the committed image). Call after Drain.
func (p *Pipeline) ArchState() *isa.State {
	s := isa.NewState()
	for i := 0; i < isa.NumIntRegs; i++ {
		s.IntReg[i] = p.physInt[p.ratInt[i]]
		s.FPReg[i] = p.physFP[p.ratFP[i]]
	}
	s.Mem = make(map[uint64]uint64, len(p.committedMem.Mem))
	for k, v := range p.committedMem.Mem {
		s.Mem[k] = v
	}
	s.Hot = append([]uint64(nil), p.committedMem.Hot...)
	s.Warm = append([]uint64(nil), p.committedMem.Warm...)
	s.Stream = append([]uint64(nil), p.committedMem.Stream...)
	return s
}

// IPC returns committed instructions per active cycle.
func (p *Pipeline) IPC() float64 {
	if p.cycle == 0 {
		return 0
	}
	return float64(p.Committed) / float64(p.cycle)
}
