// Execution and fault tolerance: every job attempt runs under
// recover(), so a panicking cell fails only that job (the stack lands
// in JobStatus.Error) while the workers keep serving; a key that keeps
// panicking is quarantined — failed permanently, never retried — after
// quarantineAfter attempts; transient failures (job timeout, injected
// I/O errors) retry with exponential backoff and jitter up to
// maxRetries; and with a journal attached, submit/done/failed
// transitions are WAL-logged so queued and interrupted jobs survive a
// crash and are replayed on the next start (see DESIGN.md, "Failure
// model and recovery").
//
// Each attempt runs under one context whose cancellation cause says
// why it ended early — ErrShutdown, ErrAbandoned, ErrDeadlineExpired,
// errJobTimeout or ErrStuck — and retry, quarantine and settle classify
// every early end by that cause alone.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/multicore"
	"repro/internal/sim"
)

// runJob runs a dispatched job to a terminal state. Panics and transient
// failures retry; any other error, every stop cause included, fails it.
func (e *Engine) runJob(j *Job) {
	e.mu.Lock()
	j.state = JobRunning
	e.running++
	runCtx := j.runCtx // only a queued job is ever revived with a new one
	e.mu.Unlock()

	for attempt := 0; ; attempt++ {
		// Asked again after every backoff, which wakes early on a stop.
		if err := e.stopReason(j); err != nil {
			e.finish(j, nil, err)
			return
		}
		e.mu.Lock()
		if attempt > 0 {
			e.stats.retries++
		}
		j.attempts = attempt + 1
		e.mu.Unlock()
		astart := e.now()
		data, err := e.attempt(runCtx, j)
		e.noteLatency(e.now().Sub(astart))
		var pe *panicError
		switch {
		case err == nil:
			e.cfg.Cache.Put(j.Key, data)
			e.finish(j, data, nil)
			return
		case errors.As(err, &pe):
			// A panic fails only this job; the worker survives. The
			// per-key counter quarantines deterministic crashers instead
			// of retrying them forever.
			e.mu.Lock()
			e.stats.panics++
			j.panics++
			e.panicCounts[j.Key]++
			n := e.panicCounts[j.Key]
			e.mu.Unlock()
			if n >= e.cfg.quarantineAfter {
				e.quarantine(j, err)
				return
			}
		case errors.Is(err, errJobTimeout) || errors.Is(err, faultinject.ErrIO):
			// Transient. Simulator and validation errors are
			// deterministic, so retrying them would be waste.
			if attempt >= e.cfg.maxRetries {
				e.finish(j, nil, fmt.Errorf("after %d attempts: %w", attempt+1, err))
				return
			}
		default:
			e.finish(j, nil, err)
			return
		}
		e.backoff(attempt, runCtx.Done())
	}
}

// stopReason says why job j must not start an attempt, or nil:
// ErrShutdown once Shutdown has begun, ErrAbandoned when its last waiter
// left, ErrDeadlineExpired once its client deadline passed on the engine
// clock. An abandoned job still queued that a new waiter or a pinned
// submitter joined is revived with a fresh run context instead.
func (e *Engine) stopReason(j *Job) error {
	if e.closed.Load() {
		return ErrShutdown
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if context.Cause(j.runCtx) == ErrAbandoned {
		if j.state != JobQueued || (j.waiters == 0 && !j.pinned) {
			return ErrAbandoned
		}
		j.runCtx, j.runCancel = context.WithCancelCause(e.baseCtx)
	}
	if !j.deadline.IsZero() && e.now().After(j.deadline) {
		return ErrDeadlineExpired
	}
	return nil
}

// attempt executes the job once under its attempt context. Outermost
// first, it stacks: the job's run context ctx (cancelled with
// ErrAbandoned when the last waiter leaves, and through the engine's
// base context with ErrShutdown at the drain deadline), the client
// deadline (ErrDeadlineExpired), the job timeout (errJobTimeout), and,
// with the watchdog armed, a cancel the watchdog fires with ErrStuck.
func (e *Engine) attempt(ctx context.Context, j *Job) ([]byte, error) {
	e.mu.Lock()
	deadline := j.deadline // joiners may move it between attempts
	e.mu.Unlock()
	var cancel context.CancelFunc
	if !deadline.IsZero() {
		ctx, cancel = context.WithDeadlineCause(ctx, deadline, ErrDeadlineExpired)
		defer cancel()
	}
	if e.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeoutCause(ctx, e.cfg.JobTimeout, errJobTimeout)
		defer cancel()
	}
	if e.cfg.Watchdog > 0 {
		return e.runWatched(ctx, j.Req)
	}
	return e.runGuarded(ctx, j.Req)
}

// runGuarded runs the cell once under recover(): a panicking run
// (simulator bug, injected fault) becomes a *panicError carrying the
// goroutine stack instead of killing the worker. An error returned
// after ctx ended becomes ctx's cancellation cause.
func (e *Engine) runGuarded(ctx context.Context, req Request) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			data, err = nil, &panicError{val: r, stack: debug.Stack()}
		}
	}()
	if err = e.cfg.Inject.Fire(faultinject.SiteJobRun); err == nil {
		data, err = e.run(ctx, req)
	}
	if err != nil && ctx.Err() != nil {
		err = context.Cause(ctx)
	}
	return data, err
}

// progressCtx is the watchdog's liveness tap: the simulator's interval
// loop polls ctx.Err() once per sensor interval, so routing the
// attempt's context through this wrapper turns every poll into a
// progress tick — no hot-loop or stats-bus changes needed.
type progressCtx struct {
	context.Context
	ticks *atomic.Uint64
}

func (p *progressCtx) Err() error {
	p.ticks.Add(1)
	return p.Context.Err()
}

func (p *progressCtx) Done() <-chan struct{} {
	p.ticks.Add(1)
	return p.Context.Done()
}

// runWatched executes the attempt on a child goroutine under a soft
// watchdog: if the run neither finishes nor polls its context for a
// full watchdog period, the watchdog cancels the run's context with
// ErrStuck, fails the attempt with that verdict, and abandons the
// wedged goroutine (its eventual result is dropped). A run that merely
// takes long but keeps polling is never shot — the watchdog watches
// progress, not duration.
func (e *Engine) runWatched(ctx context.Context, req Request) ([]byte, error) {
	ctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	var (
		ticks atomic.Uint64
		data  []byte
		err   error
	)
	done := make(chan struct{})
	go func() {
		data, err = e.runGuarded(&progressCtx{Context: ctx, ticks: &ticks}, req)
		close(done)
	}()
	poll := e.cfg.Watchdog / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	last := ticks.Load()
	lastProgress := e.now()
	for {
		select {
		case <-done:
			return data, err
		case <-t.C:
			if cur := ticks.Load(); cur != last {
				last, lastProgress = cur, e.now()
				continue
			}
			if e.now().Sub(lastProgress) >= e.cfg.Watchdog {
				// The verdict stands even when an outer cause ended the
				// context first: a run that ignored it is still stuck.
				stuck := fmt.Errorf("%w after %s without progress", ErrStuck, e.cfg.Watchdog)
				stop(stuck)
				return nil, stuck
			}
		}
	}
}

// panicError is a recovered worker panic in error form; the stack it
// carries surfaces in JobStatus.Error.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", p.val, p.stack)
}

// quarantine permanently fails a job whose key keeps panicking and
// journals the poison marker so it survives restarts.
func (e *Engine) quarantine(j *Job, cause error) {
	e.mu.Lock()
	j.state = JobQuarantined
	j.err = fmt.Errorf("quarantined after %d panics: %w", j.panics, cause)
	msg := j.err.Error()
	e.stats.quarantined++
	e.stats.failed++
	e.mu.Unlock()
	rec := journal.Record{Op: journal.OpQuarantined, Key: j.Key, Err: msg}
	if c, err := j.Req.Canonical(); err == nil {
		rec.Req = c
	}
	e.journalAppend(rec)
	e.settle(j, true, false)
}

// settle is the single exit point for quarantine and finish, once the
// terminal record is journaled: it marks a result whose record missed
// the journal, releases the job's run context, takes a job a worker ran
// off the running count, and closes the done channel.
func (e *Engine) settle(j *Job, ran, nonDurable bool) {
	e.mu.Lock()
	j.nonDurable = nonDurable
	j.runCancel(nil)
	if ran {
		e.running--
	}
	e.mu.Unlock()
	close(j.done)
}

// finish settles a job done (err nil) or failed, counting failures by
// cause. The result's telemetry is decoded before the engine lock is
// taken; only its folds run under it.
func (e *Engine) finish(j *Job, data []byte, err error) {
	var util UtilizationMetrics
	var mc MulticoreMetrics
	var mcCoreN []uint64
	if err == nil {
		util, mc, mcCoreN = resultTelemetry(j.Req, data)
	}
	e.mu.Lock()
	ran := j.state == JobRunning
	if err != nil {
		j.state, j.err = JobFailed, err
		e.stats.failed++
		switch {
		case errors.Is(err, ErrDeadlineExpired):
			e.stats.shedExpired++
		case errors.Is(err, ErrAbandoned):
			e.stats.abandoned++
		case errors.Is(err, ErrStuck):
			e.stats.watchdog++
		}
	} else {
		j.state, j.resultJSON = JobDone, data
		e.stats.completed++
		addUtilization(&e.stats.util, util)
		addMulticore(&e.stats.mc, &e.stats.mcCoreN, mc, mcCoreN)
	}
	e.mu.Unlock()
	var journaled bool
	switch {
	case err == nil:
		journaled = e.journalAppend(journal.Record{Op: journal.OpDone, Key: j.Key})
	case errors.Is(err, ErrShutdown) || e.closed.Load():
		// Shutdown-interrupted jobs keep their pending journal record
		// so the next start replays them: not a durability gap.
		journaled = true
	default:
		// Genuine failures are terminal.
		journaled = e.journalAppend(journal.Record{Op: journal.OpFailed, Key: j.Key, Err: err.Error()})
	}
	e.settle(j, ran, e.cfg.Journal != nil && !journaled)
}

// resultTelemetry decodes one result's contribution to the /metrics
// folds: a cell's utilization, or a multicore run counted once on each
// of its cores. An undecodable result contributes nothing.
func resultTelemetry(req Request, data []byte) (util UtilizationMetrics, mc MulticoreMetrics, mcCoreN []uint64) {
	if req.Multicore != nil {
		var r multicore.Result
		if json.Unmarshal(data, &r) != nil {
			return util, mc, nil
		}
		mc = MulticoreMetrics{Runs: 1, CoolingStalls: r.CoolingStalls, Migrations: uint64(r.Migrations)}
		mcCoreN = make([]uint64, len(r.PerCore))
		for i, c := range r.PerCore {
			mcCoreN[i] = 1
			mc.CoreUtilization = append(mc.CoreUtilization, c.Utilization)
			mc.CoreAvgTempK = append(mc.CoreAvgTempK, c.AvgTempK)
			mc.CorePeakTempK = append(mc.CorePeakTempK, c.PeakTempK)
		}
		return util, mc, mcCoreN
	}
	var r sim.Result
	if json.Unmarshal(data, &r) == nil {
		u := r.Utilization
		util = UtilizationMetrics{Cells: 1, IntQHalfOcc: u.IntQHalfOcc,
			FPQHalfOcc: u.FPQHalfOcc, ALUGrantShare: u.ALUGrantShare, RFReadShare: u.RFReadShare}
	}
	return util, mc, nil
}

// runCell executes one simulation cell on config.Default() with the
// request's plan/techniques — or one multi-core scheduling run when the
// request carries the multicore shape — and returns the canonical
// result JSON.
func runCell(ctx context.Context, req Request) ([]byte, error) {
	req = req.Normalize()
	if req.Multicore != nil {
		r, err := multicore.Run(ctx, *req.Multicore)
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	}
	cfg := config.Default()
	cfg.Plan = req.Plan
	cfg.Techniques = req.Techniques
	s, err := sim.NewByName(cfg, req.Benchmark)
	if err != nil {
		return nil, err
	}
	s.WarmupInstructions = req.Warmup
	r, err := s.RunCyclesContext(ctx, req.Cycles)
	if err != nil {
		return nil, err
	}
	return json.Marshal(r)
}
