package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestDueAtDoesNotDrift(t *testing.T) {
	start := time.Unix(100, 0)
	if got := dueAt(start, 4000, 4000*60); !got.Equal(start.Add(time.Minute)) {
		t.Errorf("request 240000 at 4000/s due %v after start, want 1m", got.Sub(start))
	}
	if got := dueAt(start, 4000, 1).Sub(start); got != 250*time.Microsecond {
		t.Errorf("period %v, want 250us", got)
	}
}

// A FIFO server with one stalled request: the requests queued behind the
// stall have short round trips but long latencies, because latency is
// timed from when each request was due, not from when it was sent.
func TestOpenLoopStallShowsInLatency(t *testing.T) {
	start := time.Unix(0, 0)
	const rate = 4000 // one request every 250us
	var ss []sample
	free := start // when the server can take the next request
	for i := 0; i < 40; i++ {
		due := dueAt(start, rate, i)
		s := sample{idx: i, due: due, ok: i != 30}
		s.sent = due.Add(100 * time.Microsecond) // the generator's lateness
		if free.After(s.sent) {
			s.sent = free
		}
		service := 100 * time.Microsecond
		if i == 10 {
			service = 2 * time.Millisecond
		}
		s.done = s.sent.Add(service)
		free = s.done
		ss = append(ss, s)
	}
	// Requests 0-3 are the warm-up, due before the window.
	lat, rtt, late, failed := window(ss, dueAt(start, rate, 4), dueAt(start, rate, 40))
	if len(lat) != 36 || len(late) != 36 || len(rtt) != 35 || failed != 1 {
		t.Fatalf("window kept %d latencies, %d rtts, %d lateness, %d failed; want 36, 35, 36, 1", len(lat), len(rtt), len(late), failed)
	}
	if got := ss[11].latency(); got < 1.9 {
		t.Errorf("request 11, queued behind the stall, latency %.2fms: the wait is not counted", got)
	}
	if got := ss[11].rtt(); got > 0.11 {
		t.Errorf("request 11 rtt %.2fms, want its own 0.1ms service", got)
	}
	if got := ss[11].late(); got < 1.8 {
		t.Errorf("request 11 handed over %.2fms late, want the stall's backlog", got)
	}
	if !math.IsInf(ss[30].latency(), 1) {
		t.Error("a failed request must sort as +Inf")
	}
	if s := sortedCopy(lat); !math.IsInf(s[len(s)-1], 1) || nearestRank(s, 50) > 1 {
		t.Errorf("latencies %v: want a sub-ms median and the failure sorted last", s)
	}
}

func TestOpenLoopSendsOnSchedule(t *testing.T) {
	var calls atomic.Int64
	ss := openLoop(2000, 50*time.Millisecond, func(lane, i int) bool {
		calls.Add(1)
		return i != 7 && lane >= 0 && lane < conns
	})
	if len(ss) != 100 || calls.Load() != 100 {
		t.Fatalf("%d samples, %d sends, want 100 of each", len(ss), calls.Load())
	}
	for i, s := range ss {
		if s.idx != i || s.sent.Before(s.due) || s.done.Before(s.sent) || s.ok != (i != 7) {
			t.Fatalf("sample %d: %+v", i, s)
		}
		if i > 0 && s.due.Sub(ss[i-1].due) != 500*time.Microsecond {
			t.Fatalf("request %d due %v after its predecessor", i, s.due.Sub(ss[i-1].due))
		}
	}
}

func TestAnotherRoundStopsAtNearestBoundary(t *testing.T) {
	for _, c := range []struct {
		rounds          int
		elapsed, target float64
		want            bool
	}{
		{0, 0, 15, true},      // the first round always runs
		{1, 28, 15, false},    // one round already past the target
		{1, 12, 15, false},    // 12 s is nearer 15 s than 24 s is
		{1, 9, 15, true},      // 18 s is nearer than 9 s
		{2, 18, 15, false},    // 2 rounds of 9 s: 18 s, not 27 s
		{3, 12, 15, true},     // 4 rounds of 4 s: 16 s beats 12 s
		{4, 16, 15, false},    // and then stop
		{1, 9.99, 15, true},   // just under the half-round line
		{1, 10.01, 15, false}, // just over it
	} {
		if got := anotherRound(c.rounds, c.elapsed, c.target); got != c.want {
			t.Errorf("anotherRound(%d rounds, %.2f s, target %.0f s) = %v, want %v", c.rounds, c.elapsed, c.target, got, c.want)
		}
	}
}

func TestClosedLoopBoundedByCounter(t *testing.T) {
	ss := closedLoop(conns, time.Now().Add(time.Minute), counter(25), func(lane, i int) bool { return true })
	if len(ss) != 25 {
		t.Fatalf("%d samples, want 25", len(ss))
	}
	seen := map[int]bool{}
	for _, s := range ss {
		if seen[s.idx] || !s.sent.Equal(s.due) {
			t.Fatalf("sample %+v repeated or not sent when due", s)
		}
		seen[s.idx] = true
	}
}
