package pipeline

import "repro/internal/isa"

// The active list is stored structure-of-arrays: the fields the back end's
// data-dependent walks touch (completion buckets, wakeup waiter lists,
// the in-order commit scan) are split from the fields only dispatch and
// issue read, so each walk pulls full cache lines of exactly the state it
// needs. See DESIGN.md "ROB memory layout" for the cache-line budget.
//
// Three parallel groups, all indexed by active-list slot:
//
//   - robHot: the scheduler-visible per-slot state — 8 bytes exactly, so
//     one 64-byte line carries 8 entries (the whole 128-entry hot array is
//     16 lines, vs one line per entry in the old array-of-structs ring).
//   - the wakeup link words (wnext, sNext): hot-side bookkeeping for the
//     event-driven wakeup, kept out of robHot because they are only
//     touched on waiter-list registration and drain, not by every state
//     transition. wnext is flat and token-indexed (token = slot*2 +
//     operand), so following a waiter chain is one indexed load with no
//     per-operand branch.
//   - robCold: dispatch-time operands and memory identity — read at issue
//     (register sources, effective address), at completion (result value,
//     LSQ link, redirect flag) and at commit (LSQ link, previous mapping),
//     but never by the wakeup walks.
//
// The scheduler and the wakeup oracle in the tests go through the
// hotAt/coldAt accessor seam below, so the layout can change again
// without touching scheduler logic.

// robHot is one active-list slot's scheduler state. Keep it at 8 bytes:
// completion, wakeup and commit chase these in data-dependent order, and
// the density is the point of the split.
type robHot struct {
	op       isa.Op
	state    slotState
	fp       bool // integer vs floating-point issue queue
	destFP   bool // destination register file (valid iff destPhys >= 0)
	unit     int8
	waitCnt  uint8 // unready source registers this entry is registered on
	destPhys int16
}

// robCold is one active-list slot's dispatch-time payload: instruction
// identity, renamed sources, memory identity, and the result value. Only
// pointer-chased from a known slot, never scanned.
type robCold struct {
	seq       uint64
	addr      uint64 // pre-resolved effective address (memory ops)
	value     uint64
	prevPhys  int16
	src1Phys  int16
	src2Phys  int16
	mispredct bool
	lsqIdx    int32
}

// window is the in-flight instruction store: the active-list ring (SoA,
// see above) and the program-ordered load/store queue ring.
type window struct {
	hot  []robHot
	cold []robCold

	// Event-driven wakeup links. wnext[slot*2+op] chains the
	// per-register waiter lists; sNext[slot] chains the per-store list a
	// blocked load sits on. Link words are only read while the slot is
	// on the corresponding list.
	wnext []int32
	sNext []int32

	head  int
	tail  int
	count int

	lsq      []lsqEntry
	lsqHead  int
	lsqTail  int
	lsqCount int
}

// init sizes the window for an active list of n slots and an LSQ of m.
func (w *window) init(n, m int) {
	w.hot = make([]robHot, n)
	w.cold = make([]robCold, n)
	w.wnext = make([]int32, 2*n)
	w.sNext = make([]int32, n)
	w.lsq = make([]lsqEntry, m)
}

// hotAt and coldAt are the accessor seam shared by the wakeup, the wakeup
// oracle in the tests, and everything else that resolves a slot ID to
// entry state: all layout knowledge stays behind these two calls.
func (w *window) hotAt(id int32) *robHot   { return &w.hot[id] }
func (w *window) coldAt(id int32) *robCold { return &w.cold[id] }
