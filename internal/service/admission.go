// Admission: the submit paths, deadline-aware admission control with
// its latency EWMA, and the Retry-After hint served with 429s (see
// DESIGN.md, "Overload and degraded modes").
package service

import (
	"context"
	"math"
	"time"

	"repro/internal/journal"
)

// SubmitOptions carries per-submission overload-protection options.
type SubmitOptions struct {
	// Deadline, when nonzero, is the latest wall-clock instant the
	// caller still wants the result. Admission sheds the submission
	// (ErrDeadlineUnmeetable) when the estimated queue wait already
	// blows it; a job whose deadline passes before it completes fails
	// with ErrDeadlineExpired. Zero applies the engine's default
	// deadline, if configured.
	Deadline time.Time
}

// Submit registers the request and returns its job. The fast paths, in
// order: an identical job already queued or running is shared
// (single-flight); a cached result completes the job immediately; a
// known done job is returned as-is. Otherwise the job is enqueued, or
// ErrQueueFull is returned when the queue is at capacity. A previously
// failed key is re-enqueued (failures are not cached).
func (e *Engine) Submit(req Request) (*Job, error) {
	return e.submit(req, SubmitOptions{}, false)
}

// SubmitOpts is Submit with overload-protection options.
func (e *Engine) SubmitOpts(req Request, opt SubmitOptions) (*Job, error) {
	return e.submit(req, opt, false)
}

func (e *Engine) submit(req Request, opt SubmitOptions, abandonable bool) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	req = req.Normalize()
	key, err := req.Key()
	if err != nil {
		return nil, err
	}
	if opt.Deadline.IsZero() && e.cfg.DefaultDeadline > 0 {
		opt.Deadline = e.now().Add(e.cfg.DefaultDeadline)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.submitLocked(key, req, opt, false, abandonable)
}

// SubmitWait submits on the synchronous path and blocks until the job
// settles or ctx is done. When ctx dies first — the HTTP client behind
// a ?wait=1 request disconnected — the waiter deregisters, and if it
// was the job's only interested party (no other waiters, never joined
// by an async/batch/replay submission) the job's run context is
// cancelled with ErrAbandoned so the worker stops computing a result
// nobody will read.
func (e *Engine) SubmitWait(ctx context.Context, req Request, opt SubmitOptions) (JobStatus, error) {
	j, err := e.submit(req, opt, true)
	if err != nil {
		return JobStatus{}, err
	}
	e.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobQuarantined {
		st := statusLocked(j)
		e.mu.Unlock()
		return st, nil
	}
	j.waiters++
	e.mu.Unlock()
	select {
	case <-j.done:
		e.mu.Lock()
		defer e.mu.Unlock()
		j.waiters--
		return statusLocked(j), nil
	case <-ctx.Done():
		e.mu.Lock()
		defer e.mu.Unlock()
		j.waiters--
		if j.waiters == 0 && !j.pinned && (j.state == JobQueued || j.state == JobRunning) {
			j.runCancel(ErrAbandoned)
		}
		return JobStatus{}, ctx.Err()
	}
}

// submitLocked is the admission path for one job; the caller holds
// e.mu. With reserved true (batch admission) the caller has already
// checked queue capacity for the whole batch. abandonable marks a
// sole-synchronous-waiter submission; any other join pins the job
// against client abandonment.
func (e *Engine) submitLocked(key string, req Request, opt SubmitOptions, reserved, abandonable bool) (*Job, error) {
	if e.closed.Load() {
		return nil, ErrShutdown
	}
	if j, ok := e.jobs[key]; ok && (j.state == JobQueued || j.state == JobRunning) {
		e.deduped++
		if !abandonable {
			j.pinned = true
		}
		// The shared job honors the most generous deadline among its
		// submitters: any no-deadline join clears it, otherwise the
		// later deadline wins.
		if opt.Deadline.IsZero() {
			j.deadline = time.Time{}
		} else if !j.deadline.IsZero() && opt.Deadline.After(j.deadline) {
			j.deadline = opt.Deadline
		}
		return j, nil
	}
	if j, ok := e.jobs[key]; ok && j.state == JobQuarantined {
		// Poisoned input: permanently failed, never re-enqueued.
		return j, nil
	}
	if data, ok := e.cfg.Cache.Get(key); ok {
		if j, ok := e.jobs[key]; ok && j.state == JobDone && j.cached {
			// Repeat hit: results are deterministic, so the bytes are the
			// job's bytes — reuse it instead of allocating a twin.
			return j, nil
		}
		j := &Job{Key: key, Req: req, state: JobDone, cached: true, resultJSON: data, done: closedDone}
		e.jobs[key] = j
		return j, nil
	}
	if j, ok := e.jobs[key]; ok && j.state == JobDone {
		// Done but evicted from the cache: still serve the job's bytes.
		return j, nil
	}
	if !opt.Deadline.IsZero() {
		if wait := e.drainTime(e.queuedLocked()); wait > 0 && e.now().Add(wait).After(opt.Deadline) {
			e.shedAdmission.Add(1)
			e.noteReject()
			return nil, ErrDeadlineUnmeetable
		}
	}
	if !reserved && e.queuedLocked() >= e.cfg.QueueDepth {
		e.noteReject()
		return nil, ErrQueueFull
	}
	j := &Job{Key: key, Req: req, state: JobQueued, done: make(chan struct{}),
		deadline: opt.Deadline, pinned: !abandonable}
	j.runCtx, j.runCancel = context.WithCancelCause(e.baseCtx)
	// Journal ordering: the submit record lands before the job becomes
	// runnable, so a crash between the two replays rather than loses it.
	if c, err := req.Canonical(); err == nil {
		e.journalAppend(journal.Record{Op: journal.OpSubmit, Key: key, Req: c})
	}
	e.queue = append(e.queue, j)
	e.jobs[key] = j
	e.signalWork()
	return j, nil
}

// SubmitBatch expands the batch into cell jobs and registers an
// aggregate batch job. All cells are admitted atomically: under the
// engine lock the batch counts the queue slots it needs and checks
// them against free capacity, so either every cell that needs to run
// is enqueued or the whole batch is rejected with ErrQueueFull and
// nothing is enqueued — no concurrent submitter can wedge a batch
// half in.
func (e *Engine) SubmitBatch(breq BatchRequest) (*Batch, error) {
	return e.SubmitBatchOpts(breq, SubmitOptions{})
}

// SubmitBatchOpts is SubmitBatch with overload-protection options; the
// deadline applies to every cell, and a single unmeetable cell rejects
// the whole batch (all-or-nothing, like capacity).
func (e *Engine) SubmitBatchOpts(breq BatchRequest, opt SubmitOptions) (*Batch, error) {
	key, err := breq.Key()
	if err != nil {
		return nil, err
	}
	if opt.Deadline.IsZero() && e.cfg.DefaultDeadline > 0 {
		opt.Deadline = e.now().Add(e.cfg.DefaultDeadline)
	}
	spec, cells, err := breq.Cells()
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if keys[i], err = c.Key(); err != nil {
			return nil, err
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil, ErrShutdown
	}
	if b, ok := e.batches[key]; ok && b.state != JobFailed {
		e.deduped++
		return b, nil
	}

	// Admission: count the cells that need a queue slot and check them
	// against free capacity. Workers cannot pop and no submitter can
	// enqueue while we hold the lock, so the count stays true until the
	// cells are in.
	need := 0
	for i := range cells {
		j, known := e.jobs[keys[i]]
		inFlight := known && j.state != JobFailed
		if !inFlight && !e.cfg.Cache.Contains(keys[i]) {
			need++
		}
	}
	if e.queuedLocked()+need > e.cfg.QueueDepth {
		e.noteReject()
		return nil, ErrQueueFull
	}

	b := &Batch{Key: key, Spec: spec, state: JobQueued, done: make(chan struct{})}
	b.cells = make([]*Job, len(cells))
	for i, c := range cells {
		j, err := e.submitLocked(keys[i], c, opt, true, false)
		if err != nil {
			// A cell was shed (deadline unmeetable) or the engine closed
			// under us: reject the whole batch.
			b.state, b.err = JobFailed, err
			close(b.done)
			e.batches[key] = b
			return nil, err
		}
		b.cells[i] = j
	}
	e.batches[key] = b
	go e.aggregate(b)
	return b, nil
}

// aggregate waits for every cell of the batch and settles the batch
// state: failed with the first (lowest-indexed) cell error, else done.
func (e *Engine) aggregate(b *Batch) {
	for _, j := range b.cells {
		<-j.done
	}
	e.mu.Lock()
	b.state = JobDone
	for _, j := range b.cells {
		if j.err != nil {
			b.state, b.err = JobFailed, j.err
			break
		}
	}
	e.mu.Unlock()
	close(b.done)
}

// noteLatency folds one attempt's wall-clock duration into the EWMA
// (α = 0.2) behind drainTime's wait estimate. Stored as float64 bits
// in an atomic, CAS-looped: workers record concurrently and the submit
// path reads lock-free.
func (e *Engine) noteLatency(d time.Duration) {
	s := d.Seconds()
	for {
		old := e.latEWMA.Load()
		next := s
		if old != 0 {
			next = 0.8*math.Float64frombits(old) + 0.2*s
		}
		if e.latEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// latencyEWMA returns the smoothed per-job latency, zero when no job
// has completed an attempt yet.
func (e *Engine) latencyEWMA() time.Duration {
	return time.Duration(math.Float64frombits(e.latEWMA.Load()) * float64(time.Second))
}

// drainTime estimates how long queued jobs take to drain through all
// workers at the observed per-job latency: queued × EWMA / workers.
// Admission sheds a deadline this wait already blows, and Retry-After
// rounds it up.
func (e *Engine) drainTime(queued int) time.Duration {
	return time.Duration(queued) * e.latencyEWMA() / time.Duration(len(e.workers))
}

// noteReject stamps the overload-hysteresis clock: the health state
// machine reports overloaded for overloadHold after the last rejection.
func (e *Engine) noteReject() {
	e.lastReject.Store(e.now().UnixNano())
}

// RetryAfterSeconds is the Retry-After hint served with 429 responses:
// the drain time of the current queue, rounded up, at least 1s.
func (e *Engine) RetryAfterSeconds() int {
	e.mu.Lock()
	queued := e.queuedLocked()
	e.mu.Unlock()
	secs := int((e.drainTime(queued) + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Now returns the engine's current time through the injectable clock
// seam — callers computing deadlines must use it so fake-clock tests
// stay coherent.
func (e *Engine) Now() time.Time { return e.now() }
