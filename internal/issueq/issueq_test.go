package issueq

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/power"
	"repro/internal/rng"
)

func newQ() *Queue { return New(32, 6, 2, 128) }

// drainHalves drains the queue's private stats bus and returns the joules
// attributed to each physical half since the previous drain.
func drainHalves(q *Queue) (float64, float64) {
	dst := make([]float64, 2)
	q.bus.Drain(dst, 1)
	return dst[0], dst[1]
}

// drainTicks runs enough ticks for issued entries to become holes and be
// compacted away.
func drainTicks(q *Queue, n int) {
	for i := 0; i < n; i++ {
		q.Tick()
	}
}

func TestDispatchIssueLifecycle(t *testing.T) {
	q := newQ()
	if !q.Dispatch(7) {
		t.Fatal("dispatch failed on empty queue")
	}
	if q.StateOf(7) != Waiting {
		t.Fatal("dispatched entry not Waiting")
	}
	q.MarkReady(7)
	if q.StateOf(7) != Ready {
		t.Fatal("entry not Ready")
	}
	q.Issue(7)
	if q.StateOf(7) != Draining {
		t.Fatal("entry not Draining after issue")
	}
	drainTicks(q, 3)
	if q.Contains(7) {
		t.Fatal("entry still present after drain + compaction")
	}
	if q.Occupancy() != 0 {
		t.Fatal("queue not empty")
	}
}

func TestFullQueueRejectsDispatch(t *testing.T) {
	q := newQ()
	for i := int32(0); i < 32; i++ {
		if !q.Dispatch(i) {
			t.Fatalf("dispatch %d failed", i)
		}
	}
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	if q.Dispatch(99) {
		t.Fatal("dispatch succeeded on full queue")
	}
}

func TestCompactionPreservesOrder(t *testing.T) {
	q := newQ()
	for i := int32(0); i < 20; i++ {
		q.Dispatch(i)
	}
	// Issue a scattering of entries.
	for _, id := range []int32{0, 3, 4, 9, 15} {
		q.MarkReady(id)
		q.Issue(id)
	}
	drainTicks(q, 5)
	var got []int32
	got = q.LogicalOrder(got)
	want := []int32{1, 2, 5, 6, 7, 8, 10, 11, 12, 13, 14, 16, 17, 18, 19}
	if len(got) != len(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestCompactionWidthLimit(t *testing.T) {
	q := New(32, 2, 1, 128) // only 2 holes squeezed per cycle
	for i := int32(0); i < 10; i++ {
		q.Dispatch(i)
	}
	// Create 6 holes at the bottom.
	for i := int32(0); i < 6; i++ {
		q.MarkReady(i)
		q.Issue(i)
	}
	q.Tick() // drain countdown -> holes
	movesAfterOneCompaction := q.Moves
	// With width 2, squeezing 6 holes takes 3 compaction cycles.
	drainTicks(q, 2)
	if q.Moves <= movesAfterOneCompaction {
		t.Fatal("compaction finished too fast for width limit")
	}
	var got []int32
	got = q.LogicalOrder(got)
	if len(got) != 4 {
		t.Fatalf("%d entries left, want 4", len(got))
	}
	for i, id := range []int32{6, 7, 8, 9} {
		if got[i] != id {
			t.Fatalf("order %v", got)
		}
	}
}

func TestDrainResidencyDelaysCompaction(t *testing.T) {
	q := New(32, 6, 3, 128)
	q.Dispatch(0)
	q.Dispatch(1)
	q.MarkReady(0)
	q.Issue(0)
	// For drainCycles=3 the entry must survive at least 2 ticks.
	q.Tick()
	if !q.Contains(0) {
		t.Fatal("entry compacted during drain residency")
	}
	q.Tick()
	if !q.Contains(0) {
		t.Fatal("entry compacted during drain residency (tick 2)")
	}
	drainTicks(q, 2)
	if q.Contains(0) {
		t.Fatal("entry never drained")
	}
}

func TestTailRegionCompactsMoreThanHead(t *testing.T) {
	// The paper's core observation (§2.1): entries near the tail compact
	// when ANY instruction issues, entries near the head only when an
	// instruction below them issues. Out-of-order issue removes entries
	// from scattered queue positions, so tail-half entries move far more
	// often. Reproduce that pattern and check the asymmetry.
	q := newQ()
	r := rng.New(1)
	next := int32(0)
	inFlight := []int32{}
	for cycle := 0; cycle < 2000; cycle++ {
		// Keep the queue fairly full.
		for len(inFlight) < 28 {
			id := next % 128
			if q.Contains(id) {
				break
			}
			if !q.Dispatch(id) {
				break
			}
			inFlight = append(inFlight, id)
			next++
		}
		// Issue 1-2 instructions from random queue positions (dataflow
		// readiness is scattered in real code).
		issues := 1 + r.Intn(2)
		for k := 0; k < issues && len(inFlight) > 0; k++ {
			i := r.Intn(len(inFlight))
			id := inFlight[i]
			inFlight = append(inFlight[:i], inFlight[i+1:]...)
			q.MarkReady(id)
			q.Issue(id)
		}
		q.Tick()
	}
	if float64(q.HalfMoves[1]) < 1.5*float64(q.HalfMoves[0]) {
		t.Fatalf("tail half moved %d, head half %d: expected strong asymmetry",
			q.HalfMoves[1], q.HalfMoves[0])
	}
}

func TestToggleBalancesCompactionAcrossHalves(t *testing.T) {
	// With periodic toggling, the two physical halves should see much
	// more similar movement counts.
	q := newQ()
	r := rng.New(1)
	next := int32(0)
	inFlight := []int32{}
	for cycle := 0; cycle < 4000; cycle++ {
		if cycle > 0 && cycle%500 == 0 {
			q.Toggle()
		}
		for len(inFlight) < 28 {
			id := next % 128
			if q.Contains(id) {
				break
			}
			if !q.Dispatch(id) {
				break
			}
			inFlight = append(inFlight, id)
			next++
		}
		issues := 1 + r.Intn(2)
		for k := 0; k < issues && len(inFlight) > 0; k++ {
			i := r.Intn(len(inFlight))
			id := inFlight[i]
			inFlight = append(inFlight[:i], inFlight[i+1:]...)
			q.MarkReady(id)
			q.Issue(id)
		}
		q.Tick()
	}
	lo, hi := q.HalfMoves[0], q.HalfMoves[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 2.2*float64(lo) {
		t.Fatalf("toggling left halves imbalanced: %d vs %d", q.HalfMoves[0], q.HalfMoves[1])
	}
	if q.Toggles != 7 {
		t.Fatalf("toggles %d, want 7", q.Toggles)
	}
}

func TestToggleRelabelsWithoutLosingEntries(t *testing.T) {
	q := newQ()
	for i := int32(0); i < 10; i++ {
		q.Dispatch(i)
	}
	q.Toggle()
	if q.Mode() != 1 {
		t.Fatal("mode not toggled")
	}
	var got []int32
	got = q.LogicalOrder(got)
	if len(got) != 10 {
		t.Fatalf("%d entries after toggle, want 10", len(got))
	}
	for i := range got {
		if got[i] != int32(i) {
			t.Fatalf("relative order broken: %v", got)
		}
	}
	// All ten sat in physical half 0 (phys 0..9); they must still be
	// there (toggling moves no data).
	for i := int32(0); i < 10; i++ {
		if q.PhysicalHalfOf(i) != 0 {
			t.Fatalf("entry %d moved physically on toggle", i)
		}
	}
	// Dispatch after toggle must land in the new tail region.
	if !q.Dispatch(20) {
		t.Fatal("dispatch failed after toggle")
	}
	got = q.LogicalOrder(got[:0])
	if got[len(got)-1] != 20 {
		t.Fatalf("new dispatch not at tail: %v", got)
	}
}

func TestWrapMovesChargedInMode1(t *testing.T) {
	q := newQ()
	// Enter mode 1 with an empty queue: head at physical 16.
	q.Toggle()
	// Fill logical 0..19 (physical 16..31 then 0..3).
	for i := int32(0); i < 20; i++ {
		q.Dispatch(i)
	}
	// Issue the head (logical 0, physical 16): everything compacts down
	// one, and the entry at logical 16 (physical 0) wraps to physical 31.
	q.MarkReady(0)
	q.Issue(0)
	drainTicks(q, 3)
	if q.WrapMoves == 0 {
		t.Fatal("no wrap moves recorded in mode 1 compaction")
	}
	if q.Contains(0) {
		t.Fatal("issued head entry still present")
	}
	var got []int32
	got = q.LogicalOrder(got)
	for i := range got {
		if got[i] != int32(i+1) {
			t.Fatalf("order after wrap compaction: %v", got)
		}
	}
}

func TestNoWrapMovesInMode0(t *testing.T) {
	q := newQ()
	r := rng.New(3)
	next := int32(0)
	for cycle := 0; cycle < 500; cycle++ {
		for j := 0; j < 4; j++ {
			id := next % 128
			if !q.Contains(id) && q.Dispatch(id) {
				next++
			}
		}
		var ready []int32
		for id := int32(0); id < 128; id++ {
			if q.StateOf(id) == Waiting {
				ready = append(ready, id)
			}
		}
		for k := 0; k < 2 && len(ready) > 0; k++ {
			i := r.Intn(len(ready))
			q.MarkReady(ready[i])
			q.Issue(ready[i])
			ready = append(ready[:i], ready[i+1:]...)
		}
		q.Tick()
	}
	if q.WrapMoves != 0 {
		t.Fatalf("%d wrap moves in conventional mode", q.WrapMoves)
	}
}

func TestEnergyAccountingHandComputed(t *testing.T) {
	q := New(8, 4, 2, 16)
	// Dispatch 3 entries at physical slots 0-2 (all in half 0). Each
	// dispatch charges: payload RAM split evenly, half the dispatch-bus
	// drive to the written half, and the other half of the drive split.
	q.Dispatch(0)
	q.Dispatch(1)
	q.Dispatch(2)
	want0 := 3 * (power.PayloadRAMAccess/2 + power.LongCompaction/2 + power.LongCompaction/4)
	want1 := 3 * (power.PayloadRAMAccess/2 + power.LongCompaction/4)
	// Nothing has been drained yet, so EnergyTotals is exactly the pending
	// per-half energy on the bus.
	if got, _ := q.EnergyTotals(); math.Abs(got-want0) > 1e-18 {
		t.Fatalf("half0 after dispatch %.3e, want %.3e", got, want0)
	}
	if _, got := q.EnergyTotals(); math.Abs(got-want1) > 1e-18 {
		t.Fatalf("half1 after dispatch %.3e, want %.3e", got, want1)
	}
	// Issue entry 0: select + payload read, split evenly.
	q.MarkReady(0)
	q.Issue(0)
	want0 += (power.SelectAccess + power.PayloadRAMAccess) / 2
	want1 += (power.SelectAccess + power.PayloadRAMAccess) / 2
	if _, got := q.EnergyTotals(); math.Abs(got-want1) > 1e-18 {
		t.Fatalf("half1 after issue %.3e, want %.3e", got, want1)
	}
	// Tick 1: clock gating only (entry still draining).
	q.Tick()
	want0 += power.ClockGatingLogic / 2
	want1 += power.ClockGatingLogic / 2
	if got, _ := q.EnergyTotals(); math.Abs(got-want0) > 1e-18 {
		t.Fatalf("half0 after drain tick %.3e, want %.3e", got, want0)
	}
	// Tick 2: hole appears at logical 0 and compacts: entries 1 and 2
	// (physical 1, 2 -> 0, 1; both in half 0 of the 8-entry queue) each
	// pay counter stages + entry-to-entry + mux select, all in half 0.
	q.Tick()
	want0 += power.ClockGatingLogic/2 +
		2*(power.CounterStage1+power.CounterStage2) +
		2*power.CompactEntryToEntry + 2*power.CompactMuxSelect
	want1 += power.ClockGatingLogic / 2
	if got, _ := q.EnergyTotals(); math.Abs(got-want0) > 1e-18 {
		t.Fatalf("half0 after compaction %.3e, want %.3e", got, want0)
	}
	if _, got := q.EnergyTotals(); math.Abs(got-want1) > 1e-18 {
		t.Fatalf("half1 after compaction %.3e, want %.3e", got, want1)
	}
	// Draining the bus converts the pending counts to joules per half and
	// resets the interval accumulators; lifetime totals survive.
	d0, d1 := drainHalves(q)
	if math.Abs(d0-want0) > 1e-18 || math.Abs(d1-want1) > 1e-18 {
		t.Fatalf("bus drain (%.3e, %.3e), want (%.3e, %.3e)", d0, d1, want0, want1)
	}
	if d0, d1 = drainHalves(q); d0 != 0 || d1 != 0 {
		t.Fatal("bus drain did not clear the interval counters")
	}
	if t0, _ := q.EnergyTotals(); math.Abs(t0-want0) > 1e-18 {
		t.Fatal("EnergyTotals reset by bus drain")
	}
}

func TestBroadcastEnergy(t *testing.T) {
	q := newQ()
	q.Broadcast(3)
	q.Broadcast(0) // no-op
	want := 3 * power.TagBroadcastMatch / 2
	d0, d1 := drainHalves(q)
	if math.Abs(d0-want) > 1e-18 {
		t.Fatalf("broadcast energy %v, want %v", d0, want)
	}
	if math.Abs(d1-want) > 1e-18 {
		t.Fatal("half 1 should match half 0")
	}
}

func TestBroadcastMatchFollowsOccupancy(t *testing.T) {
	// With three entries in half 0 and one in half 1, the CAM match share
	// of a broadcast splits 3:1; the wire share stays even.
	q := New(8, 4, 2, 16)
	for i := int32(0); i < 3; i++ {
		q.Dispatch(i) // physical 0-2: half 0
	}
	q.Dispatch(3)
	q.Dispatch(4)  // physical 4: half 1
	q.Remove(3)    // leave a hole at physical 3 so halves hold 3 and 1
	drainHalves(q) // discard dispatch energy
	q.Broadcast(2)
	e := 2 * power.TagBroadcastMatch
	want0 := e/4 + e/2*3/4
	want1 := e/4 + e/2*1/4
	d0, d1 := drainHalves(q)
	if math.Abs(d0-want0) > 1e-18 || math.Abs(d1-want1) > 1e-18 {
		t.Fatalf("broadcast split (%.3e, %.3e), want (%.3e, %.3e)", d0, d1, want0, want1)
	}
}

func TestRequestsVector(t *testing.T) {
	q := newQ()
	q.Dispatch(5)
	q.Dispatch(6)
	q.MarkReady(6)
	req := make([]int32, 32)
	q.Requests(req)
	found := 0
	for p, id := range req {
		switch id {
		case -1:
		case 6:
			found++
			if p != 1 {
				t.Fatalf("ready entry at phys %d, want 1", p)
			}
		default:
			t.Fatalf("unexpected request id %d", id)
		}
	}
	if found != 1 {
		t.Fatalf("found %d ready entries", found)
	}
}

func TestRemoveAndTailReclaim(t *testing.T) {
	q := newQ()
	for i := int32(0); i < 32; i++ {
		q.Dispatch(i)
	}
	// Flush the top 10 (a branch mispredict squashes the youngest).
	for i := int32(22); i < 32; i++ {
		q.Remove(i)
	}
	if q.Full() {
		t.Fatal("tail not reclaimed after flush")
	}
	if !q.Dispatch(50) {
		t.Fatal("dispatch failed after flush reclaim")
	}
	q.Remove(99) // absent: no-op
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"odd entries":     func() { New(31, 6, 2, 128) },
		"too many":        func() { New(66, 6, 2, 128) },
		"zero width":      func() { New(32, 0, 2, 128) },
		"double dispatch": func() { q := newQ(); q.Dispatch(1); q.Dispatch(1) },
		"ready absent":    func() { newQ().MarkReady(3) },
		"issue absent":    func() { newQ().Issue(3) },
		"issue not ready": func() { q := newQ(); q.Dispatch(1); q.Issue(1) },
		"requests size":   func() { newQ().Requests(make([]int32, 4)) },
		"dispatch range":  func() { newQ().Dispatch(128) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReset(t *testing.T) {
	q := newQ()
	q.Dispatch(1)
	q.MarkReady(1)
	q.Issue(1)
	q.Tick()
	q.Toggle()
	q.Reset()
	if q.Occupancy() != 0 || q.Mode() != 0 || q.Toggles != 0 || q.Moves != 0 {
		t.Fatal("Reset incomplete")
	}
	if !q.Dispatch(1) {
		t.Fatal("dispatch after reset")
	}
}

// Property: under random dispatch/issue/toggle traffic the queue never
// loses or duplicates an instruction, and id->position stays consistent.
func TestQuickNoLostInstructions(t *testing.T) {
	f := func(seed uint64) bool {
		q := newQ()
		r := rng.New(seed)
		present := map[int32]bool{}
		draining := map[int32]int{}
		next := int32(0)
		for cycle := 0; cycle < 300; cycle++ {
			// Random dispatches.
			for j := 0; j < r.Intn(4); j++ {
				id := next % 128
				if present[id] || draining[id] > 0 || q.Contains(id) {
					continue
				}
				if q.Dispatch(id) {
					present[id] = true
					next++
				}
			}
			// Random issues.
			var waiting []int32
			for id := range present {
				if q.StateOf(id) == Waiting {
					waiting = append(waiting, id)
				}
			}
			for k := 0; k < r.Intn(3) && len(waiting) > 0; k++ {
				i := r.Intn(len(waiting))
				id := waiting[i]
				q.MarkReady(id)
				q.Issue(id)
				delete(present, id)
				draining[id] = 3
				waiting = append(waiting[:i], waiting[i+1:]...)
			}
			// Occasional toggle.
			if r.Bool(0.02) {
				q.Toggle()
			}
			q.Tick()
			for id := range draining {
				draining[id]--
				if draining[id] <= 0 {
					delete(draining, id)
				}
			}
			// Invariant: every present instruction is in the queue exactly
			// once and queue occupancy >= len(present).
			var order []int32
			order = q.LogicalOrder(order)
			seen := map[int32]int{}
			for _, id := range order {
				seen[id]++
			}
			for id := range present {
				if seen[id] != 1 {
					return false
				}
			}
			for _, n := range seen {
				if n != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: relative logical order of un-issued instructions is preserved
// by compaction (within a mode epoch).
func TestQuickOrderPreservedWithinEpoch(t *testing.T) {
	f := func(seed uint64) bool {
		q := newQ()
		r := rng.New(seed)
		var fifo []int32
		next := int32(0)
		for cycle := 0; cycle < 200; cycle++ {
			for j := 0; j < r.Intn(3); j++ {
				id := next % 128
				if q.Contains(id) {
					continue
				}
				if q.Dispatch(id) {
					fifo = append(fifo, id)
					next++
				}
			}
			// Issue from random positions.
			for k := 0; k < r.Intn(3) && len(fifo) > 0; k++ {
				i := r.Intn(len(fifo))
				id := fifo[i]
				q.MarkReady(id)
				q.Issue(id)
				fifo = append(fifo[:i], fifo[i+1:]...)
			}
			q.Tick()
			var order []int32
			order = q.LogicalOrder(order)
			// Filter draining entries out of the comparison.
			var live []int32
			for _, id := range order {
				if q.StateOf(id) != Draining {
					live = append(live, id)
				}
			}
			if len(live) != len(fifo) {
				return false
			}
			for i := range live {
				if live[i] != fifo[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNonCompactingBasics(t *testing.T) {
	q := newQ()
	q.SetNonCompacting(true)
	if !q.NonCompacting() {
		t.Fatal("mode not set")
	}
	for i := int32(0); i < 32; i++ {
		if !q.Dispatch(i) {
			t.Fatalf("dispatch %d failed", i)
		}
	}
	if !q.Full() || q.Dispatch(99) {
		t.Fatal("full queue accepted a dispatch")
	}
	// Issue a middle entry: its slot frees and is reused in place, with
	// no movement of anything else.
	q.MarkReady(10)
	q.Issue(10)
	drainTicks(q, 3)
	if q.Moves != 0 {
		t.Fatalf("non-compacting queue moved %d entries", q.Moves)
	}
	if q.Full() {
		t.Fatal("freed slot not visible")
	}
	if !q.Dispatch(99) {
		t.Fatal("freed slot not reusable")
	}
	if q.PhysicalHalfOf(99) != 0 {
		t.Fatal("freed slot (phys 10) should be in half 0")
	}
	// Everything else stayed in place.
	for i := int32(0); i < 10; i++ {
		if q.PhysicalHalfOf(i) != 0 {
			t.Fatalf("entry %d moved", i)
		}
	}
}

func TestNonCompactingChargesNoCompactionEnergy(t *testing.T) {
	run := func(nonCompacting bool) float64 {
		q := newQ()
		q.SetNonCompacting(nonCompacting)
		r := rng.New(5)
		next := int32(0)
		var inFlight []int32
		for cycle := 0; cycle < 3000; cycle++ {
			for len(inFlight) < 24 {
				id := next % 128
				if q.Contains(id) || !q.Dispatch(id) {
					break
				}
				inFlight = append(inFlight, id)
				next++
			}
			for k := 0; k < 2 && len(inFlight) > 0; k++ {
				i := r.Intn(len(inFlight))
				id := inFlight[i]
				inFlight = append(inFlight[:i], inFlight[i+1:]...)
				q.MarkReady(id)
				q.Issue(id)
			}
			q.Tick()
		}
		d0, d1 := drainHalves(q)
		return d0 + d1
	}
	compacting, non := run(false), run(true)
	if non >= compacting {
		t.Fatalf("non-compacting energy %.3e not below compacting %.3e", non, compacting)
	}
}

func TestNonCompactingPanics(t *testing.T) {
	q := newQ()
	q.Dispatch(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetNonCompacting on occupied queue did not panic")
			}
		}()
		q.SetNonCompacting(true)
	}()
	q2 := newQ()
	q2.SetNonCompacting(true)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Toggle on non-compacting queue did not panic")
			}
		}()
		q2.Toggle()
	}()
}
