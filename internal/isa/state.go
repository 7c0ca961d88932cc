package isa

import (
	"fmt"
	"slices"
)

// StreamBase is the start of the streaming address region: the trace
// generator's "cold" accesses walk word by word upward from here, so the
// region is dense, 8-byte aligned, and written monotonically.
const StreamBase uint64 = 0x4000_0000

// HotBase and WarmBase anchor the trace generator's two reused working
// sets. Both regions are small (tens of KB to ~1 MB) and hammered by
// every load and store, so like the stream they live in dense slices
// instead of the map — the map's hashing was a measurable slice of the
// simulator's commit and store-forwarding paths.
const (
	HotBase  uint64 = 0x1000_0000
	WarmBase uint64 = 0x2000_0000

	// denseCapWords bounds how far the hot/warm slices may grow; aligned
	// addresses past the cap fall back to the sparse map. 2^23 words
	// (64 MB of address span per region) is far beyond any profile's
	// working set while keeping a stray address from ballooning memory.
	denseCapWords uint64 = 1 << 23
)

// State is an architectural machine state: the integer and floating-point
// register files plus data memory. It backs the in-order reference executor
// used to validate the out-of-order pipeline, and it also supplies the
// committed memory image that the pipeline's load/store queue reads through.
//
// Memory is split by region: aligned addresses in the hot, warm and
// streaming regions live in dense slices indexed by word offset
// (zero-filled like real memory); the sparse map holds everything else.
// A write past a region's length extends it in one step. Reserve sizes
// the hot and warm regions for a workload's working sets up front, so
// only the streaming region, whose extent depends on run length, grows
// as it runs, geometrically as append grows a slice. A map would pay an
// overflow-bucket allocation for the stream every few thousand stores —
// the slices keep the simulator's commit path allocation-free
// (amortized) in steady state and replace per-access map hashing with
// an index.
type State struct {
	IntReg [NumIntRegs]uint64
	FPReg  [NumFPRegs]uint64
	Mem    map[uint64]uint64
	Hot    []uint64
	Warm   []uint64
	Stream []uint64
}

// NewState returns a zeroed architectural state with registers initialized
// to a fixed, non-trivial pattern (register i holds i*0x9e3779b9+1) so that
// dataflow bugs surface as value mismatches instead of hiding behind zeros.
func NewState() *State {
	s := &State{Mem: make(map[uint64]uint64)}
	for i := range s.IntReg {
		s.IntReg[i] = uint64(i)*0x9e3779b9 + 1
	}
	for i := range s.FPReg {
		s.FPReg[i] = uint64(i)*0xc2b2ae3d + 3
	}
	return s
}

// region maps an address to its dense region and word index, or ok=false
// for addresses the sparse map owns (unaligned, below HotBase, between
// regions, or past a region's growth cap). The predicate depends only on
// the address, so reads and writes always agree on where a value lives.
func (s *State) region(addr uint64) (*[]uint64, uint64, bool) {
	if addr%8 != 0 || addr < HotBase {
		return nil, 0, false
	}
	if addr >= StreamBase {
		return &s.Stream, (addr - StreamBase) / 8, true
	}
	if addr >= WarmBase {
		if idx := (addr - WarmBase) / 8; idx < denseCapWords {
			return &s.Warm, idx, true
		}
		return nil, 0, false
	}
	if idx := (addr - HotBase) / 8; idx < denseCapWords {
		return &s.Hot, idx, true
	}
	return nil, 0, false
}

// ReadMem returns the value at addr (zero if never written).
func (s *State) ReadMem(addr uint64) uint64 {
	if r, idx, ok := s.region(addr); ok {
		if idx < uint64(len(*r)) {
			return (*r)[idx]
		}
		return 0
	}
	return s.Mem[addr]
}

// WriteMem stores v at addr.
func (s *State) WriteMem(addr uint64, v uint64) {
	if r, idx, ok := s.region(addr); ok {
		if n := uint64(len(*r)); idx >= uint64(cap(*r)) {
			*r = append(*r, make([]uint64, idx+1-n)...)
		} else if idx >= n {
			// Inside the reserved room: extend in place, without the
			// temporary that append(make) costs under -race.
			*r = (*r)[:idx+1]
			clear((*r)[n:idx])
		}
		(*r)[idx] = v
		return
	}
	s.Mem[addr] = v
}

// Reserve gives the hot and warm regions room for working sets of
// hotBytes and warmBytes, never beyond the dense cap, so that writes
// inside them extend the regions in place. Lengths do not change, so no
// read, copy or Diff can tell.
func (s *State) Reserve(hotBytes, warmBytes int) {
	s.Hot = reserve(s.Hot, hotBytes)
	s.Warm = reserve(s.Warm, warmBytes)
}

// reserve grows r's capacity to bytes/8 words, capped at denseCapWords.
func reserve(r []uint64, bytes int) []uint64 {
	words := min(bytes/8, int(denseCapWords))
	return slices.Grow(r, max(words-len(r), 0))
}

// Exec executes one instruction architecturally, in program order. Branches
// change no state (trace-driven control flow).
func (s *State) Exec(in Inst) {
	switch in.Op {
	case OpLoad:
		// Trace-driven addressing: the generator resolves the effective
		// address (Inst.Addr); Src1 still sources the AGU for timing.
		s.IntReg[in.Dest] = s.ReadMem(in.Addr)
	case OpLoadFP:
		s.FPReg[in.Dest] = s.ReadMem(in.Addr)
	case OpStore:
		s.WriteMem(in.Addr, s.IntReg[in.Src2])
	case OpBr, OpNop:
		// no architectural effect
	case OpFAdd, OpFMul:
		s.FPReg[in.Dest] = ALUResult(in.Op, s.FPReg[in.Src1], s.FPReg[in.Src2])
	default:
		s.IntReg[in.Dest] = ALUResult(in.Op, s.IntReg[in.Src1], s.IntReg[in.Src2])
	}
}

// ExecAll executes a slice of instructions in order.
func (s *State) ExecAll(insts []Inst) {
	for _, in := range insts {
		s.Exec(in)
	}
}

// Diff compares two states and returns a description of the first
// difference found, or "" if the states are architecturally identical.
// Memory comparison treats absent keys as zero.
func (s *State) Diff(o *State) string {
	for i := range s.IntReg {
		if s.IntReg[i] != o.IntReg[i] {
			return fmt.Sprintf("int r%d: %#x vs %#x", i, s.IntReg[i], o.IntReg[i])
		}
	}
	for i := range s.FPReg {
		if s.FPReg[i] != o.FPReg[i] {
			return fmt.Sprintf("fp f%d: %#x vs %#x", i, s.FPReg[i], o.FPReg[i])
		}
	}
	for addr, v := range s.Mem {
		if o.Mem[addr] != v {
			return fmt.Sprintf("mem[%#x]: %#x vs %#x", addr, v, o.Mem[addr])
		}
	}
	for addr, v := range o.Mem {
		if s.Mem[addr] != v {
			return fmt.Sprintf("mem[%#x]: %#x vs %#x", addr, s.Mem[addr], v)
		}
	}
	if d := diffDense(s.Hot, o.Hot, HotBase); d != "" {
		return d
	}
	if d := diffDense(s.Warm, o.Warm, WarmBase); d != "" {
		return d
	}
	return diffDense(s.Stream, o.Stream, StreamBase)
}

// diffDense compares two dense memory regions, treating missing tail
// entries as zero, and reports the first mismatch.
func diffDense(x, y []uint64, base uint64) string {
	n := len(x)
	if len(y) > n {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(x) {
			a = x[i]
		}
		if i < len(y) {
			b = y[i]
		}
		if a != b {
			return fmt.Sprintf("mem[%#x]: %#x vs %#x", base+uint64(i)*8, a, b)
		}
	}
	return ""
}
