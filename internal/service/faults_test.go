package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// stubResult is a minimal valid result document for fault tests.
func stubResult(bench string) []byte {
	return []byte(`{"benchmark":"` + bench + `","blocks":[],"avg_temp_k":[],"peak_temp_k":[]}`)
}

// fastRetries shrinks the backoff knobs so retry tests settle in
// milliseconds.
func fastRetries(cfg EngineConfig) EngineConfig {
	cfg.retryBase = time.Millisecond
	return cfg
}

func shutdownEngine(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.Shutdown(ctx)
}

// TestEnginePanicIsolated: a panicking run fails only that attempt — the
// worker survives, the job retries and completes, and the engine keeps
// serving other work.
func TestEnginePanicIsolated(t *testing.T) {
	var runs atomic.Int64
	e := NewEngine(fastRetries(EngineConfig{Workers: 1, QueueDepth: 8}))
	defer shutdownEngine(t, e)
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		if runs.Add(1) == 1 {
			panic("simulator bug: index out of range")
		}
		return stubResult(req.Benchmark), nil
	}

	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("job after one panic: %+v", st)
	}
	if st.Attempts != 2 || st.Panics != 1 {
		t.Errorf("attempts=%d panics=%d, want 2/1", st.Attempts, st.Panics)
	}
	if m := e.Metrics(); m.JobPanics != 1 {
		t.Errorf("JobPanics = %d, want 1", m.JobPanics)
	}
	// The worker that recovered the panic still serves new work.
	j2, err := e.Submit(cellReq("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	if st2, err := e.Wait(context.Background(), j2.Key); err != nil || st2.State != JobDone {
		t.Fatalf("engine dead after panic: %+v, %v", st2, err)
	}
}

// TestEngineQuarantineAfterRepeatedPanics: a key that keeps panicking is
// quarantined with the stack in its error, and resubmitting it returns
// the poisoned job without another run.
func TestEngineQuarantineAfterRepeatedPanics(t *testing.T) {
	var runs atomic.Int64
	e := NewEngine(fastRetries(EngineConfig{Workers: 1, QueueDepth: 8, quarantineAfter: 2}))
	defer shutdownEngine(t, e)
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		runs.Add(1)
		panic("deterministic crasher")
	}

	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQuarantined {
		t.Fatalf("job = %+v, want quarantined", st)
	}
	if !strings.Contains(st.Error, "quarantined after 2 panics") {
		t.Errorf("quarantine error = %q", st.Error)
	}
	if !strings.Contains(st.Error, "goroutine") {
		t.Errorf("quarantine error carries no stack trace: %q", st.Error)
	}
	if runs.Load() != 2 {
		t.Errorf("%d runs before quarantine, want 2", runs.Load())
	}
	m := e.Metrics()
	if m.JobsQuarantined != 1 || m.JobPanics != 2 || m.JobsFailed != 1 {
		t.Errorf("metrics = quarantined %d, panics %d, failed %d", m.JobsQuarantined, m.JobPanics, m.JobsFailed)
	}

	// Resubmission returns the poisoned job as-is: no new run.
	j2, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	if j2 != j {
		t.Error("quarantined key was re-enqueued")
	}
	if runs.Load() != 2 {
		t.Errorf("quarantined key ran again: %d runs", runs.Load())
	}
}

// TestEnginePanicCountSpansSubmissions: the per-key panic counter
// accumulates across separate submissions, so a crasher that fails
// between panics is still quarantined.
func TestEnginePanicCountSpansSubmissions(t *testing.T) {
	var runs atomic.Int64
	e := NewEngine(fastRetries(EngineConfig{Workers: 1, QueueDepth: 8, quarantineAfter: 2}))
	defer shutdownEngine(t, e)
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		switch runs.Add(1) {
		case 2:
			return nil, errors.New("deterministic failure") // permanent: ends submission 1
		default:
			panic("crash")
		}
	}

	j1, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st1, err := e.Wait(context.Background(), j1.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != JobFailed || st1.Panics != 1 {
		t.Fatalf("first submission = %+v, want failed with 1 panic", st1)
	}

	// Second submission panics once more: key total hits 2 → quarantine.
	j2, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := e.Wait(context.Background(), j2.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != JobQuarantined {
		t.Fatalf("second submission = %+v, want quarantined", st2)
	}
	if runs.Load() != 3 {
		t.Errorf("%d total runs, want 3", runs.Load())
	}
}

// TestEngineTransientErrorRetried: injected transient I/O failures are
// retried with backoff until the run succeeds.
func TestEngineTransientErrorRetried(t *testing.T) {
	var runs atomic.Int64
	e := NewEngine(fastRetries(EngineConfig{Workers: 1, QueueDepth: 8})) // maxRetries default: 2
	defer shutdownEngine(t, e)
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		if runs.Add(1) <= 2 {
			return nil, fmt.Errorf("reading trace: %w", faultinject.ErrIO)
		}
		return stubResult(req.Benchmark), nil
	}

	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Attempts != 3 {
		t.Fatalf("job = %+v, want done on attempt 3", st)
	}
	if m := e.Metrics(); m.JobsRetried != 2 {
		t.Errorf("JobsRetried = %d, want 2", m.JobsRetried)
	}
}

// TestEngineRetriesExhausted: a transient failure that never clears
// fails after maxRetries+1 attempts with the attempt count in the error.
func TestEngineRetriesExhausted(t *testing.T) {
	var runs atomic.Int64
	e := NewEngine(fastRetries(EngineConfig{Workers: 1, QueueDepth: 8, maxRetries: 1}))
	defer shutdownEngine(t, e)
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		runs.Add(1)
		return nil, faultinject.ErrIO
	}

	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "after 2 attempts") {
		t.Fatalf("job = %+v, want failure after 2 attempts", st)
	}
	if runs.Load() != 2 {
		t.Errorf("%d runs with maxRetries=1, want 2", runs.Load())
	}
}

// TestEnginePermanentErrorNotRetried: deterministic simulator errors
// fail immediately — retrying them is waste.
func TestEnginePermanentErrorNotRetried(t *testing.T) {
	var runs atomic.Int64
	e := NewEngine(fastRetries(EngineConfig{Workers: 1, QueueDepth: 8}))
	defer shutdownEngine(t, e)
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		runs.Add(1)
		return nil, errors.New("benchmark trace malformed")
	}

	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || st.Attempts != 1 || runs.Load() != 1 {
		t.Fatalf("job = %+v after %d runs, want one failed attempt", st, runs.Load())
	}
	if m := e.Metrics(); m.JobsRetried != 0 {
		t.Errorf("JobsRetried = %d, want 0", m.JobsRetried)
	}
}

// TestEngineInjectorDrivesJobSite: the EngineConfig.Inject seam injects
// faults at the job-run site without touching the run function — one
// armed panic, then the real run proceeds on retry.
func TestEngineInjectorDrivesJobSite(t *testing.T) {
	inj := faultinject.New()
	inj.Arm(faultinject.SiteJobRun, faultinject.Outcome{Panic: "injected crash"})
	inj.Arm(faultinject.SiteJobRun, faultinject.Outcome{Err: faultinject.ErrIO})
	var runs atomic.Int64
	cfg := fastRetries(EngineConfig{Workers: 1, QueueDepth: 8, Inject: inj})
	cfg.runFunc = func(ctx context.Context, req Request) ([]byte, error) {
		runs.Add(1)
		return stubResult(req.Benchmark), nil
	}
	e := NewEngine(cfg)
	defer shutdownEngine(t, e)

	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 panics (injected), attempt 2 observes the injected
	// transient error, attempt 3 reaches the run function and succeeds.
	if st.State != JobDone || st.Attempts != 3 || st.Panics != 1 {
		t.Fatalf("job = %+v, want done on attempt 3 with 1 panic", st)
	}
	if runs.Load() != 1 {
		t.Errorf("run function executed %d times, want 1", runs.Load())
	}
	if got := inj.Fired(faultinject.SiteJobRun); got != 2 {
		t.Errorf("job.run site fired %d times, want 2", got)
	}
}

// journalCfg opens the journal under dir and returns an EngineConfig
// wired for replay with the given run function.
func journalCfg(t *testing.T, dir string, run func(ctx context.Context, req Request) ([]byte, error)) EngineConfig {
	t.Helper()
	jnl, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastRetries(EngineConfig{Workers: 1, QueueDepth: 8, Journal: jnl, Replay: recs})
	cfg.runFunc = run
	return cfg
}

// waitJobDone polls for key to appear and settle as done on e —
// journal-replayed jobs are resubmitted asynchronously, so the job may
// not be registered yet when the poll starts.
func waitJobDone(t *testing.T, e *Engine, key string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := e.Job(key); ok {
			switch st.State {
			case JobDone:
				return st
			case JobFailed, JobQuarantined:
				t.Fatalf("job %s settled badly: %+v", key, st)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never completed", key)
	return JobStatus{}
}

// TestEngineJournalReplaysInterruptedJobs simulates a crash: engine 1 is
// shut down by deadline with one job running and one queued, writing no
// terminal records for either; engine 2 opens the same journal, replays
// both submits, and completes them.
func TestEngineJournalReplaysInterruptedJobs(t *testing.T) {
	dir := t.TempDir()

	// Engine 1: jobs block until shutdown cancels them.
	cfg1 := journalCfg(t, dir, func(ctx context.Context, req Request) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	e1 := NewEngine(cfg1)
	runningJob, err := e1.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e1)
	queuedJob, err := e1.Submit(cellReq("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if err := e1.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted shutdown = %v, want deadline exceeded", err)
	}
	cancel()

	// The journal holds both submits and no terminal records: both jobs
	// are pending for the next start.
	jnl, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending, quarantined := journal.Pending(recs)
	if len(pending) != 2 || len(quarantined) != 0 {
		t.Fatalf("after crash: %d pending, %d quarantined, want 2/0", len(pending), len(quarantined))
	}
	jnl.Close()

	// Engine 2: same journal dir, working runner. Both jobs replay to done.
	var runs atomic.Int64
	cfg2 := journalCfg(t, dir, func(ctx context.Context, req Request) ([]byte, error) {
		runs.Add(1)
		return stubResult(req.Benchmark), nil
	})
	e2 := NewEngine(cfg2)
	waitJobDone(t, e2, runningJob.Key)
	waitJobDone(t, e2, queuedJob.Key)
	if runs.Load() != 2 {
		t.Errorf("replay ran %d jobs, want 2", runs.Load())
	}
	if ready, _ := e2.Ready(); !ready {
		t.Error("engine not ready after replay settled")
	}
	shutdownEngine(t, e2)

	// Third open: the done records settled both jobs; nothing replays.
	_, recs3, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending3, _ := journal.Pending(recs3)
	if len(pending3) != 0 {
		t.Errorf("jobs still pending after a clean run: %+v", pending3)
	}
}

// pendingJournal leaves n pending submits in a fresh journal under dir,
// as a crashed engine would, and returns their keys.
func pendingJournal(t *testing.T, dir string, n int) []string {
	t.Helper()
	jnl, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, n)
	for i := range keys {
		req := Request{Benchmark: "eon", Cycles: 100_000 + int64(i), Warmup: 10_000}
		c, err := req.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = mustKey(t, req)
		if err := jnl.Append(journal.Record{Op: journal.OpSubmit, Key: keys[i], Req: c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestEngineJournalReplayIntoFullQueue replays more pending jobs than
// the queue holds — six pending submits, one worker, QueueDepth 1 — so
// the replay must wait for queue space. While it waits, readiness says
// "journal replay"; every job then settles done exactly once, and
// readiness returns as soon as the replay has finished: waiting for
// space refuses no client, so it stamps no overload hold. Shutdown
// while the replay waits returns promptly and leaves all six jobs
// pending in the journal.
func TestEngineJournalReplayIntoFullQueue(t *testing.T) {
	const n = 6
	// The engine's clock never advances, so an overload stamped during
	// the replay would still hold when readiness is checked.
	clk := faultinject.NewClock(time.Now())
	start := func(t *testing.T, run func(ctx context.Context, req Request) ([]byte, error)) (*Engine, string, []string) {
		dir := t.TempDir()
		keys := pendingJournal(t, dir, n)
		cfg := journalCfg(t, dir, run)
		cfg.QueueDepth = 1
		cfg.Inject = faultinject.New()
		cfg.Inject.SetClock(clk)
		e := NewEngine(cfg)
		// One job runs and one fills the queue: the replay can add
		// nothing more until a pop.
		waitUntil(t, 5*time.Second, "one job running and one queued", func() bool {
			m := e.Metrics()
			return m.JobsRunning == 1 && m.JobsQueued == 1
		})
		if ready, reason := e.Ready(); ready || reason != "journal replay" {
			t.Errorf("Ready() = %v %q while the replay waits, want false %q", ready, reason, "journal replay")
		}
		return e, dir, keys
	}

	t.Run("settles", func(t *testing.T) {
		release := make(chan struct{})
		var mu sync.Mutex
		runs := make(map[string]int)
		e, _, keys := start(t, func(ctx context.Context, req Request) ([]byte, error) {
			<-release
			key, err := req.Key()
			if err != nil {
				return nil, err
			}
			mu.Lock()
			runs[key]++
			mu.Unlock()
			return stubResult(req.Benchmark), nil
		})
		defer shutdownEngine(t, e)
		close(release)
		for _, k := range keys {
			waitJobDone(t, e, k)
		}
		waitUntil(t, 5*time.Second, "the replay to finish", e.replayed.Load)
		if ready, reason := e.Ready(); !ready {
			t.Errorf("Ready() = false %q once the replay has finished", reason)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, k := range keys {
			if runs[k] != 1 {
				t.Errorf("job %s ran %d times, want 1", k, runs[k])
			}
		}
		if m := e.Metrics(); m.JobsCompleted != n {
			t.Errorf("jobs_completed = %d, want %d", m.JobsCompleted, n)
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		e, dir, _ := start(t, func(ctx context.Context, req Request) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		begin := time.Now()
		e.Shutdown(ctx)
		if d := time.Since(begin); d > 2*time.Second {
			t.Errorf("Shutdown took %v with the replay waiting", d)
		}
		waitUntil(t, 5*time.Second, "the replay to stop", e.replayed.Load)
		_, recs, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if pending, _ := journal.Pending(recs); len(pending) != n {
			t.Errorf("%d jobs pending after Shutdown, want %d", len(pending), n)
		}
	})
}

// TestEngineQuarantineSurvivesRestart: a quarantine marker written by
// one engine poisons the key in the next one — the job is not re-run
// even though the journal replay path resubmits pending work.
func TestEngineQuarantineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	cfg1 := journalCfg(t, dir, func(ctx context.Context, req Request) ([]byte, error) {
		panic("poison")
	})
	cfg1.quarantineAfter = 1
	e1 := NewEngine(cfg1)
	j, err := e1.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e1.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQuarantined {
		t.Fatalf("job = %+v, want quarantined", st)
	}
	shutdownEngine(t, e1)

	var runs atomic.Int64
	cfg2 := journalCfg(t, dir, func(ctx context.Context, req Request) ([]byte, error) {
		runs.Add(1)
		return stubResult(req.Benchmark), nil
	})
	cfg2.quarantineAfter = 1
	e2 := NewEngine(cfg2)
	defer shutdownEngine(t, e2)

	// The restored marker answers directly; nothing is enqueued.
	j2, err := e2.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	if state := e2.snapshot(j2).State; state != JobQuarantined {
		t.Fatalf("restarted engine re-admitted a quarantined key: %v", state)
	}
	if runs.Load() != 0 {
		t.Errorf("quarantined key ran %d times after restart", runs.Load())
	}
	st2, ok := e2.Job(j.Key)
	if !ok || st2.State != JobQuarantined || !strings.Contains(st2.Error, "quarantined") {
		t.Errorf("restored quarantine status = %+v", st2)
	}
}

// TestEngineShutdownPersistsFinalStates: a job that completes during the
// drain writes its done record before Shutdown returns, so a restart
// does not replay it.
func TestEngineShutdownPersistsFinalStates(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	cfg := journalCfg(t, dir, func(ctx context.Context, req Request) ([]byte, error) {
		select {
		case <-release:
			return stubResult(req.Benchmark), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	e := NewEngine(cfg)
	if _, err := e.Submit(cellReq("eon")); err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e)
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release) // completes while the drain is in progress
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	_, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending, _ := journal.Pending(recs)
	if len(pending) != 0 {
		t.Errorf("drained job still pending after shutdown: %+v", pending)
	}
}
