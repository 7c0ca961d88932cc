// Circuit breakers for the engine's disk-backed dependencies (the
// result cache's disk layer and the job journal). A breaker trips open
// after a run of consecutive failures — where an over-latency success
// also counts as a failure, so a disk that still answers but has gone
// to seconds-per-write degrades instead of stalling every job — and
// recovers through the standard half-open probe: after the cooldown one
// caller is let through, success closes the breaker, failure re-opens
// it for another cooldown. The engine's two breakers trip after 3
// consecutive failures, count a disk operation slower than 2s as a
// failure, and probe after a 2s cooldown. See DESIGN.md, "Overload and
// degraded modes".
//
// Time flows through an injected now func (the faultinject clock seam),
// so cooldown expiry is testable without sleeping.
package service

import (
	"sync"
	"time"
)

// BreakerState is the classic three-state circuit-breaker lifecycle.
type BreakerState int

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerSnapshot is the wire shape of a breaker, served in /metrics.
type BreakerSnapshot struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Trips               uint64 `json:"trips"`
	Probes              uint64 `json:"probes"`
	LastError           string `json:"last_error,omitempty"`
}

// Breaker guards one backend. A nil *Breaker is always closed and
// records nothing, so call sites need no guards. Safe for concurrent
// use.
type Breaker struct {
	name          string
	failThreshold int           // consecutive failures that trip the breaker
	latThreshold  time.Duration // a slower success still counts as a failure; 0 disables
	cooldown      time.Duration // open → half-open delay
	now           func() time.Time

	mu       sync.Mutex
	state    BreakerState
	consec   int
	openedAt time.Time
	trips    uint64
	probes   uint64
	lastErr  string
}

// newBreaker builds a breaker; zero/negative knobs take the defaults
// (3 consecutive failures, 2s latency threshold, 2s cooldown).
func newBreaker(name string, failures int, latency, cooldown time.Duration, now func() time.Time) *Breaker {
	if failures <= 0 {
		failures = 3
	}
	if latency <= 0 {
		latency = 2 * time.Second
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{name: name, failThreshold: failures, latThreshold: latency, cooldown: cooldown, now: now}
}

// Allow reports whether the caller may touch the backend. In the open
// state it returns false until the cooldown has elapsed, then admits
// exactly one caller as the half-open probe; in half-open every caller
// but the in-flight probe is refused.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probes++
		return true
	default: // half-open: one probe is already out
		return false
	}
}

// Record reports one backend operation's outcome. err != nil is a
// failure; so is a success slower than the latency threshold. It
// returns true exactly when this outcome closed a non-closed breaker —
// the "recovered" edge the engine uses to re-journal outstanding state.
func (b *Breaker) Record(d time.Duration, err error) (recovered bool) {
	if b == nil {
		return false
	}
	fail := err != nil || (b.latThreshold > 0 && d > b.latThreshold)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		b.lastErr = err.Error()
	} else if fail {
		b.lastErr = "slow: " + d.String()
	}
	switch b.state {
	case BreakerHalfOpen:
		if fail {
			b.tripLocked()
			return false
		}
		b.state = BreakerClosed
		b.consec = 0
		b.lastErr = ""
		return true
	case BreakerClosed:
		if !fail {
			b.consec = 0
			return false
		}
		b.consec++
		if b.consec >= b.failThreshold {
			b.tripLocked()
		}
		return false
	default: // open: a straggler finishing an operation started earlier
		if !fail {
			// Treat it as a free successful probe: the backend answered.
			b.state = BreakerClosed
			b.consec = 0
			b.lastErr = ""
			return true
		}
		return false
	}
}

// tripLocked opens the breaker; caller holds b.mu.
func (b *Breaker) tripLocked() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.trips++
	b.consec = 0
}

// State returns the current state, advancing open → half-open is left
// to Allow (State is a pure read).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Snapshot returns the wire view of the breaker.
func (b *Breaker) Snapshot() BreakerSnapshot {
	if b == nil {
		return BreakerSnapshot{State: "closed"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:               b.state.String(),
		ConsecutiveFailures: b.consec,
		Trips:               b.trips,
		Probes:              b.probes,
		LastError:           b.lastErr,
	}
}
