// Package bpred implements the branch predictor used by the simulated
// front-end: a gshare direction predictor with 2-bit saturating counters
// plus a direct-mapped branch target buffer. The trace generator supplies
// actual outcomes; the predictor determines when the pipeline suffers a
// misprediction redirect, which sets the bursty fetch behaviour that the
// paper identifies as one source of asymmetric back-end utilization.
package bpred

import "fmt"

// Predictor is a gshare branch predictor. The zero value is unusable;
// construct with New.
type Predictor struct {
	historyBits uint
	history     uint64
	counters    []uint8 // 2-bit saturating counters
	btb         []btbEntry
	btbMask     uint64

	// Statistics.
	Lookups    uint64
	Mispredict uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// New returns a predictor with a 2^tableBits-entry pattern history table and
// a 2^btbBits-entry BTB.
func New(tableBits, btbBits uint) *Predictor {
	if tableBits == 0 || tableBits > 24 {
		panic("bpred: unreasonable table size")
	}
	// Very short history: enough correlation to learn alternating /
	// loop-exit patterns, while keeping each static site concentrated on
	// a few counters so they actually train. Long gshare histories pay
	// off only when successive branch outcomes are strongly correlated;
	// with more history the per-site counters fragment and never
	// saturate (the classic aliasing tradeoff).
	historyBits := uint(2)
	if historyBits > tableBits {
		historyBits = tableBits
	}
	return &Predictor{
		historyBits: historyBits,
		counters:    make([]uint8, 1<<tableBits),
		btb:         make([]btbEntry, 1<<btbBits),
		btbMask:     1<<btbBits - 1,
	}
}

// Default returns the predictor sized for the simulated machine: 8K-entry
// gshare with a 4K-entry BTB.
func Default() *Predictor { return New(13, 12) }

func (p *Predictor) index(pc uint64) uint64 {
	return (pc>>2 ^ p.history) & uint64(len(p.counters)-1)
}

// Predict returns the predicted direction and target for the branch at pc.
// A branch predicted taken with a BTB miss still redirects fetch when the
// target resolves, which the pipeline models as a (shorter) bubble; here we
// simply report the BTB target validity.
func (p *Predictor) Predict(pc uint64) (taken bool, target uint64, targetValid bool) {
	p.Lookups++
	taken = p.counters[p.index(pc)] >= 2
	e := &p.btb[(pc>>2)&p.btbMask]
	if e.valid && e.tag == pc {
		return taken, e.target, true
	}
	return taken, 0, false
}

// Update trains the predictor with the actual outcome of the branch at pc
// and records whether the prediction (made with the pre-update state) was
// wrong. It returns true on a misprediction.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) bool {
	idx := p.index(pc)
	predTaken := p.counters[idx] >= 2

	e := &p.btb[(pc>>2)&p.btbMask]
	targetKnown := e.valid && e.tag == pc && e.target == target

	// 2-bit saturating counter update.
	if taken {
		if p.counters[idx] < 3 {
			p.counters[idx]++
		}
	} else if p.counters[idx] > 0 {
		p.counters[idx]--
	}

	// Train the BTB on taken branches.
	if taken {
		e.tag, e.target, e.valid = pc, target, true
	}

	// Shift global history.
	p.history = (p.history << 1) & (1<<p.historyBits - 1)
	if taken {
		p.history |= 1
	}

	miss := predTaken != taken || (taken && !targetKnown)
	if miss {
		p.Mispredict++
	}
	return miss
}

// MispredictRate returns the fraction of updates that were mispredictions.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredict) / float64(p.Lookups)
}

// CopyFrom makes p an exact copy of src — counters, history, BTB and
// statistics — so that every later prediction matches src's. Both
// predictors must have the same table sizes; a mismatch is a programming
// error and panics.
func (p *Predictor) CopyFrom(src *Predictor) {
	if p.historyBits != src.historyBits || len(p.counters) != len(src.counters) || len(p.btb) != len(src.btb) {
		panic(fmt.Sprintf("bpred: CopyFrom %d-entry PHT/%d-entry BTB into %d/%d",
			len(src.counters), len(src.btb), len(p.counters), len(p.btb)))
	}
	copy(p.counters, src.counters)
	copy(p.btb, src.btb)
	p.history, p.Lookups, p.Mispredict = src.history, src.Lookups, src.Mispredict
}

// Reset clears all state and statistics.
func (p *Predictor) Reset() {
	p.history = 0
	for i := range p.counters {
		p.counters[i] = 0
	}
	for i := range p.btb {
		p.btb[i] = btbEntry{}
	}
	p.Lookups, p.Mispredict = 0, 0
}
