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
// known done job is returned as-is. Otherwise the job is enqueued on
// its key's shard, or ErrQueueFull is returned when the aggregate
// queue is at capacity. A previously failed key is re-enqueued
// (failures are not cached).
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
	sh := e.shardFor(key)
	sh.mu.Lock()
	j, _, err := e.submitLocked(sh, key, req, opt, false, abandonable)
	sh.mu.Unlock()
	return j, err
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
	h := j.home
	h.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobQuarantined {
		st := statusLocked(j)
		h.mu.Unlock()
		return st, nil
	}
	j.waiters++
	h.mu.Unlock()
	select {
	case <-j.done:
		h.mu.Lock()
		j.waiters--
		h.mu.Unlock()
		return j.snapshot(), nil
	case <-ctx.Done():
		h.mu.Lock()
		j.waiters--
		if j.waiters == 0 && !j.pinned && (j.state == JobQueued || j.state == JobRunning) {
			j.runCancel(ErrAbandoned)
		}
		h.mu.Unlock()
		return JobStatus{}, ctx.Err()
	}
}

// submitLocked is the admission path for one job; the caller holds
// sh.mu. With reserved true (batch admission) the aggregate capacity
// was claimed up front and enqueued reports whether this job actually
// consumed a slot. abandonable marks a sole-synchronous-waiter
// submission; any other join pins the job against client abandonment.
func (e *Engine) submitLocked(sh *shard, key string, req Request, opt SubmitOptions, reserved, abandonable bool) (j *Job, enqueued bool, err error) {
	if e.closed.Load() {
		return nil, false, ErrShutdown
	}
	if j, ok := sh.jobs[key]; ok && (j.state == JobQueued || j.state == JobRunning) {
		sh.deduped++
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
		return j, false, nil
	}
	if j, ok := sh.jobs[key]; ok && j.state == JobQuarantined {
		// Poisoned input: permanently failed, never re-enqueued.
		return j, false, nil
	}
	if data, ok := e.cfg.Cache.Get(key); ok {
		if j, ok := sh.jobs[key]; ok && j.state == JobDone && j.cached {
			// Repeat hit: results are deterministic, so the bytes are the
			// job's bytes — reuse it instead of allocating a twin.
			return j, false, nil
		}
		j := &Job{Key: key, Req: req, home: sh, state: JobDone, cached: true, resultJSON: data, done: closedDone}
		sh.jobs[key] = j
		return j, false, nil
	}
	if j, ok := sh.jobs[key]; ok && j.state == JobDone {
		// Done but evicted from the cache: still serve the job's bytes.
		return j, false, nil
	}
	if !opt.Deadline.IsZero() {
		if wait := e.estimateWait(sh); wait > 0 && e.now().Add(wait).After(opt.Deadline) {
			e.shedAdmission.Add(1)
			e.noteReject()
			return nil, false, ErrDeadlineUnmeetable
		}
	}
	if !reserved && !e.reserveSlots(1) {
		e.noteReject()
		return nil, false, ErrQueueFull
	}
	j = &Job{Key: key, Req: req, home: sh, state: JobQueued, done: make(chan struct{}),
		deadline: opt.Deadline, pinned: !abandonable}
	j.runCtx, j.runCancel = context.WithCancelCause(e.baseCtx)
	// Journal ordering: the submit record lands before the job becomes
	// runnable, so a crash between the two replays rather than loses it.
	if c, err := req.Canonical(); err == nil {
		e.journalAppend(journal.Record{Op: journal.OpSubmit, Key: key, Req: c})
	}
	sh.push(j)
	sh.jobs[key] = j
	e.signalWork()
	return j, true, nil
}

// SubmitBatch expands the batch into cell jobs and registers an
// aggregate batch job. All cells are admitted atomically: the batch
// reserves every needed queue slot in one operation while holding all
// shard locks, so either every cell that needs to run is enqueued or
// the whole batch is rejected with ErrQueueFull and nothing is
// enqueued — no concurrent submitter can wedge a batch half in.
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

	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	if e.closed.Load() {
		return nil, ErrShutdown
	}
	if b, ok := e.batches[key]; ok && b.state != JobFailed {
		e.batchDeduped++
		return b, nil
	}

	// Admission: count the cells that need a queue slot with every
	// shard locked (freezing job states and the queues), then claim
	// that many slots in one atomic reservation. Workers may free
	// capacity concurrently — that only helps — but no submitter can
	// take it: they would need a shard lock we hold.
	for _, s := range e.shards {
		s.mu.Lock()
	}
	unlock := func() {
		for _, s := range e.shards {
			s.mu.Unlock()
		}
	}
	need := 0
	for i := range cells {
		sh := e.shardFor(keys[i])
		j, known := sh.jobs[keys[i]]
		inFlight := known && j.state != JobFailed
		if !inFlight && !e.cfg.Cache.Contains(keys[i]) {
			need++
		}
	}
	if !e.reserveSlots(need) {
		unlock()
		e.noteReject()
		return nil, ErrQueueFull
	}

	b := &Batch{Key: key, Spec: spec, state: JobQueued, done: make(chan struct{})}
	b.cells = make([]*Job, len(cells))
	used := 0
	for i, c := range cells {
		sh := e.shardFor(keys[i])
		j, enq, err := e.submitLocked(sh, keys[i], c, opt, true, false)
		if err != nil {
			// A cell was shed (deadline unmeetable) or the engine closed
			// under us: release the unused reservation and reject the
			// whole batch — admission stays all-or-nothing.
			e.releaseSlot(need - used)
			unlock()
			b.state, b.err = JobFailed, err
			close(b.done)
			e.batches[key] = b
			return nil, err
		}
		if enq {
			used++
		}
		b.cells[i] = j
	}
	e.releaseSlot(need - used) // cells deduped inside the batch, if any
	unlock()
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
	e.batchMu.Lock()
	b.state = JobDone
	for _, j := range b.cells {
		// Settled before close(done), so the read is ordered.
		if j.err != nil {
			b.state, b.err = JobFailed, j.err
			break
		}
	}
	e.batchMu.Unlock()
	close(b.done)
}

// noteLatency folds one attempt's wall-clock duration into the EWMA
// (α = 0.2) that admission control multiplies by queue depth to
// estimate wait time. Stored as float64 bits in an atomic, CAS-looped:
// workers record concurrently and the submit path reads lock-free.
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

// estimateWait is the admission-control wait estimate for a job landing
// on shard sh: the jobs already queued there, each costing one EWMA
// latency. Work stealing makes this pessimistic on idle siblings —
// which is the right bias for a shedding decision.
func (e *Engine) estimateWait(sh *shard) time.Duration {
	return time.Duration(sh.qlen.Load()) * e.latencyEWMA()
}

// noteReject stamps the overload-hysteresis clock: the health state
// machine reports overloaded for overloadHold after the last rejection.
func (e *Engine) noteReject() {
	e.lastReject.Store(e.now().UnixNano())
}

// RetryAfterSeconds is the Retry-After hint served with 429 responses:
// the time to drain the current aggregate queue through all workers at
// the observed per-job latency, rounded up, at least 1s.
func (e *Engine) RetryAfterSeconds() int {
	ewma := e.latencyEWMA()
	if ewma <= 0 {
		return 1
	}
	drain := time.Duration(e.queued.Load()) * ewma / time.Duration(len(e.workers))
	secs := int((drain + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Now returns the engine's current time through the injectable clock
// seam — callers computing deadlines must use it so fake-clock tests
// stay coherent.
func (e *Engine) Now() time.Time { return e.now() }
