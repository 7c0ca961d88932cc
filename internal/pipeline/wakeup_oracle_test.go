package pipeline

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/issueq"
	"repro/internal/trace"
)

// The event-driven wakeup (per-register waiter lists, per-store wake
// lists) replaced a per-cycle scan of every waiting issue-queue entry as
// a pure data-structure optimization: the set of entries that request
// the select trees each cycle, and therefore every grant, counter and
// joule downstream, must be the set the scan would mark. The scan lives
// on here as its predicate, wakeable, checked after every Cycle:
//
//  1. a waiting entry is wakeable exactly when it is in wakeBuf (the
//     born-ready entries dispatched this cycle, which become visible to
//     selection at the next wakeupStage);
//  2. every ready entry is wakeable;
//  3. every grant this cycle was wakeable.
//
// The predicate never turns false while an entry is queued: a source
// register is reallocated only after a later writer commits, and no
// store older than a load dispatches after it. It changes only in
// completeStage, so from one completeStage to the next it is constant.
// Checks 1–3 at the end of a cycle therefore pin the ready set right
// after its wakeupStage to the scan's ready set — given the same state
// before, the scan marks exactly the waiting entries that are wakeable
// then — and by induction the whole trajectory is the scan's: every
// grant, queue counter, stats-bus count and joule, and the architectural
// state. TestOoOMatchesReference* checks that state against the
// in-order executor.

// operandsReady reports whether every renamed source of entry id is
// ready in its queue's register file.
func operandsReady(p *Pipeline, id int32) bool {
	c := p.rob.coldAt(id)
	ready := p.readyInt
	if p.rob.hotAt(id).fp {
		ready = p.readyFP
	}
	return (c.src1Phys < 0 || ready[c.src1Phys]) && (c.src2Phys < 0 || ready[c.src2Phys])
}

// wakeable is the scan's predicate: the operands of entry id are ready
// and, for a load, no older unresolved store writes the same address.
func wakeable(p *Pipeline, id int32) bool {
	if !operandsReady(p, id) {
		return false
	}
	if op := p.rob.hotAt(id).op; op == isa.OpLoad || op == isa.OpLoadFP {
		c := p.rob.coldAt(id)
		return p.findBlocker(c.seq, c.addr) < 0
	}
	return true
}

// checkWakeup fails t unless p's scheduler state after a Cycle satisfies
// checks 1–3 above. It returns the number of waiting loads whose sources
// are all ready but which an older store still blocks.
func checkWakeup(t *testing.T, p *Pipeline, cycle int) (storeBlocked int) {
	t.Helper()
	where := func(id int32) string {
		return fmt.Sprintf("cycle %d: entry %d (%v, seq %d)", cycle, id, p.rob.hotAt(id).op, p.rob.coldAt(id).seq)
	}
	for _, id := range p.wakeBuf {
		q := p.intQ
		if p.rob.hotAt(id).fp {
			q = p.fpQ
		}
		if q.StateOf(id) != issueq.Waiting || !wakeable(p, id) {
			t.Fatalf("%s: in wakeBuf but not a waiting, wakeable entry", where(id))
		}
	}
	for _, q := range []*issueq.Queue{p.intQ, p.fpQ} {
		for m := q.WaitMask(); m != 0; m &= m - 1 {
			id := q.IDAt(bits.TrailingZeros64(m))
			if wakeable(p, id) {
				if !slices.Contains(p.wakeBuf, id) {
					t.Fatalf("%s: waiting and wakeable but not woken", where(id))
				}
			} else if operandsReady(p, id) {
				storeBlocked++ // a load behind an older same-address store
			}
		}
		for m := q.ReadyMask(); m != 0; m &= m - 1 {
			if id := q.IDAt(bits.TrailingZeros64(m)); !wakeable(p, id) {
				t.Fatalf("%s: ready but not wakeable", where(id))
			}
		}
	}
	for _, g := range p.grantBuf {
		if !wakeable(p, g.ID) {
			t.Fatalf("%s: granted but not wakeable", where(g.ID))
		}
	}
	return storeBlocked
}

// runChecked cycles p until it has committed n instructions, calling
// before (if non-nil) ahead of each cycle and checkWakeup after it. It
// returns the number of cycles that ended with a store-blocked load
// waiting.
func runChecked(t *testing.T, p *Pipeline, n uint64, before func(cycle int)) (blockedCycles int) {
	t.Helper()
	p.SetFetchLimit(n)
	for c := 0; p.Committed < n; c++ {
		if before != nil {
			before(c)
		}
		p.Cycle()
		if checkWakeup(t, p, c) > 0 {
			blockedCycles++
		}
		if c > 100*int(n) {
			t.Fatal("no forward progress")
		}
	}
	return blockedCycles
}

// TestEventWakeupMatchesScanAllTechniques checks the wakeup against the
// scan over every IQ × ALU technique combination on both an
// integer-heavy and an FP-heavy trace.
func TestEventWakeupMatchesScanAllTechniques(t *testing.T) {
	iqs := []config.IQPolicy{config.IQBase, config.IQToggle, config.IQNonCompacting}
	alus := []config.ALUPolicy{config.ALUBase, config.ALURoundRobin}
	for _, profName := range []string{"eon", "swim"} {
		prof, err := trace.ByName(profName)
		if err != nil {
			t.Fatalf("profile %s: %v", profName, err)
		}
		for _, iq := range iqs {
			for _, alu := range alus {
				iq, alu := iq, alu
				t.Run(fmt.Sprintf("%s/iq=%s/alu=%s", profName, iq, alu), func(t *testing.T) {
					t.Parallel()
					cfg := config.Default()
					cfg.Techniques.IQ = iq
					cfg.Techniques.ALU = alu
					p, _ := newPipe(cfg, prof)
					runChecked(t, p, 6000, nil)
				})
			}
		}
	}
}

// TestEventWakeupMatchesScanUnderModeChurn toggles the issue-queue mode
// and flips ALU busy bits mid-flight (the thermal manager's actions),
// exercising wakeup across origin rotations and busy-masked select trees.
func TestEventWakeupMatchesScanUnderModeChurn(t *testing.T) {
	prof, _ := trace.ByName("eon")
	cfg := config.Default()
	cfg.Techniques.IQ = config.IQToggle
	p, _ := newPipe(cfg, prof)
	runChecked(t, p, 8000, func(c int) {
		if c%257 == 200 {
			p.IntQueue().Toggle()
		}
		if c%403 == 100 {
			u := (c / 403) % p.IntPool().Units()
			p.IntPool().SetBusy(u, !p.IntPool().Busy(u))
		}
	})
}

// TestEventWakeupMatchesScanRandomProfiles sweeps randomized profile
// variants (different seeds and dependency distances) with the base
// techniques.
func TestEventWakeupMatchesScanRandomProfiles(t *testing.T) {
	base, _ := trace.ByName("mcf")
	for i := 0; i < 4; i++ {
		i := i
		t.Run(fmt.Sprintf("variant%d", i), func(t *testing.T) {
			t.Parallel()
			prof := base
			prof.Name = fmt.Sprintf("mcf-var%d", i)
			prof.Seed = 0xD1F5 + uint64(i)*977
			prof.DepDist = 2 + float64(i)
			p, _ := newPipe(config.Default(), prof)
			runChecked(t, p, 5000, nil)
		})
	}
}

// TestWakeupMatchesScanAllProfiles runs every profile long enough to
// reach the store-blocked-load path. A load parks behind an older
// unresolved same-address store rarely, and in only some profiles: the
// shorter runs above never depend on that path, so a wakeup that ignores
// the blocking store passes them. A full sweep fails if no profile
// reaches the path at all.
func TestWakeupMatchesScanAllProfiles(t *testing.T) {
	n := uint64(40_000)
	if testing.Short() {
		n = 10_000
	}
	profs := trace.Profiles()
	var ran, blocked atomic.Int64
	t.Cleanup(func() {
		if ran.Load() == int64(len(profs)) && blocked.Load() == 0 && !t.Failed() {
			t.Error("no load waited on a store in any profile: the sweep no longer reaches that path")
		}
	})
	for _, prof := range profs {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			p, _ := newPipe(config.Default(), prof)
			blocked.Add(int64(runChecked(t, p, n, nil)))
			ran.Add(1)
		})
	}
}
