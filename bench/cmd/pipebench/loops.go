package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// conns bounds the client's connections, and so its requests in flight.
const conns = 2

// sample is one request as the client saw it.
type sample struct {
	idx             int
	due, sent, done time.Time
	ok              bool
}

// latency is the request's time from when it was due, so a stall also
// delays the requests queued behind it. Failed requests sort as +Inf.
func (s sample) latency() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return millis(s.done.Sub(s.due))
}

// rtt is the request's time on the wire, from send to response.
func (s sample) rtt() float64 { return millis(s.done.Sub(s.sent)) }

// late is how long after its due time the generator handed it over.
func (s sample) late() float64 { return millis(s.sent.Sub(s.due)) }

// dueAt is request i's send time in an open loop at rate per second. It
// is computed from the start, not by adding periods, so it never drifts.
func dueAt(start time.Time, rate float64, i int) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// openLoop sends requests on a fixed schedule, rate per second, for
// every request due in [start, start+length), whatever the replies do:
// independent users do not wait for each other. conns senders share the
// queue; a request due while both are busy waits, and its latency, timed
// from its due time, shows that wait. send(lane, i) runs on sender lane and reports success.
func openLoop(rate float64, length time.Duration, send func(lane, i int) bool) []sample {
	start := time.Now().Add(10 * time.Millisecond)
	n := int(length.Seconds() * rate)
	// The queue holds up to a second of backlog, so a slow reply delays
	// later requests (and shows as latency) instead of the schedule.
	queue := make(chan sample, int(rate))
	out := make([]sample, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for s := range queue {
				s.sent = time.Now()
				s.ok = send(lane, s.idx)
				s.done = time.Now()
				out[s.idx] = s
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		due := dueAt(start, rate, i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- sample{idx: i, due: due}
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop runs senders that each send their next request as soon as
// their previous reply arrives, until the deadline passes or next reports
// no more work. A slow system receives less load. Each request's due time
// is its send time.
func closedLoop(senders int, deadline time.Time, next func() (int, bool), send func(lane, i int) bool) []sample {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i, ok := next()
				if !ok {
					return
				}
				s := sample{idx: i, due: time.Now()}
				s.sent = s.due
				s.ok = send(lane, i)
				s.done = time.Now()
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// anotherRound reports whether a run that measures whole rounds of work
// should start another, given the seconds its rounds have taken so far:
// it stops at the round boundary nearest to the target, after at least
// one round. A round that takes a few seconds more or less then changes
// the round count only near a half-round boundary, not at every one.
func anotherRound(rounds int, elapsed, target float64) bool {
	return rounds == 0 || elapsed+elapsed/float64(rounds)/2 < target
}

// counter hands out 0, 1, 2, ... up to limit (exclusive; < 0 = none).
func counter(limit int) func() (int, bool) {
	var n atomic.Int64
	return func() (int, bool) {
		i := int(n.Add(1) - 1)
		return i, limit < 0 || i < limit
	}
}

// window keeps the samples due in [from, to) and returns their latencies,
// RTTs and lateness in milliseconds, with the count of failures.
func window(ss []sample, from, to time.Time) (lat, rtt, late []float64, failed int) {
	for _, s := range ss {
		if s.due.Before(from) || !s.due.Before(to) {
			continue
		}
		lat = append(lat, s.latency())
		late = append(late, s.late())
		if s.ok {
			rtt = append(rtt, s.rtt())
		} else {
			failed++
		}
	}
	return lat, rtt, late, failed
}
