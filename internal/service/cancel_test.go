// Regression tests for early ends of an attempt that land mid-run or
// mid-backoff: each must end the job at once, by its own cause, without
// another attempt.
package service

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// blockingRun is a runner that counts its calls and parks until its
// context ends; each ended run is signalled on ended.
func blockingRun(runs *atomic.Int64, ended chan<- struct{}) func(context.Context, Request) ([]byte, error) {
	return func(ctx context.Context, req Request) ([]byte, error) {
		runs.Add(1)
		<-ctx.Done()
		ended <- struct{}{}
		return nil, ctx.Err()
	}
}

// TestEngineDeadlineMidAttemptShedsWithoutRetry: a client deadline that
// passes while the attempt runs ends the job at the deadline with
// ErrDeadlineExpired. It is a shed, not a transient timeout: no retry,
// no backoff.
func TestEngineDeadlineMidAttemptShedsWithoutRetry(t *testing.T) {
	var runs atomic.Int64
	e := NewEngine(EngineConfig{Workers: 1, QueueDepth: 4, RetryBase: time.Second,
		runFunc: blockingRun(&runs, make(chan struct{}, 4))})
	defer shutdownEngine(t, e)

	start := time.Now()
	j, err := e.SubmitOpts(cellReq("eon"), SubmitOptions{Deadline: e.Now().Add(30 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("job settled %s after submit, want at its 30ms deadline", elapsed)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, ErrDeadlineExpired.Error()) {
		t.Fatalf("job = %s (%q), want failed with the deadline error", st.State, st.Error)
	}
	m := e.Metrics()
	if runs.Load() != 1 || m.JobsRetried != 0 || m.JobsShedExpired != 1 {
		t.Errorf("runs=%d retried=%d shed_expired=%d, want 1/0/1", runs.Load(), m.JobsRetried, m.JobsShedExpired)
	}
}

// TestEngineBackoffWakesOnAbandon: the last waiter disconnecting while
// the job sleeps out a retry backoff fails it at once with ErrAbandoned;
// the backoff does not run out and no second attempt starts.
func TestEngineBackoffWakesOnAbandon(t *testing.T) {
	var runs atomic.Int64
	ended := make(chan struct{}, 4)
	e := NewEngine(EngineConfig{Workers: 1, QueueDepth: 4, JobTimeout: 10 * time.Millisecond,
		RetryBase: time.Second, runFunc: blockingRun(&runs, ended)})
	defer shutdownEngine(t, e)

	ctx, cancel := context.WithCancel(context.Background())
	go e.SubmitWait(ctx, cellReq("eon"), SubmitOptions{})
	<-ended                           // attempt 1 timed out
	time.Sleep(50 * time.Millisecond) // well inside the 0.5-1s backoff
	cancel()
	start := time.Now()
	st, err := e.Wait(context.Background(), mustKey(t, cellReq("eon").Normalize()))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("abandoned job held its worker %s after the disconnect", elapsed)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, ErrAbandoned.Error()) {
		t.Fatalf("job = %s (%q), want failed as abandoned", st.State, st.Error)
	}
	m := e.Metrics()
	if runs.Load() != 1 || m.JobsRetried != 0 || m.JobsClientAbandoned != 1 {
		t.Errorf("runs=%d retried=%d client_abandoned=%d, want 1/0/1", runs.Load(), m.JobsRetried, m.JobsClientAbandoned)
	}
}

// TestEngineBackoffWakesOnShutdown: Shutdown during a retry backoff
// returns at once and starts no further attempt; the job fails with
// ErrShutdown and keeps its pending journal record for the restart.
func TestEngineBackoffWakesOnShutdown(t *testing.T) {
	dir := t.TempDir()
	jnl, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	ended := make(chan struct{}, 4)
	e := NewEngine(EngineConfig{Workers: 1, QueueDepth: 4, JobTimeout: 10 * time.Millisecond,
		RetryBase: time.Second, Journal: jnl, Replay: recs, runFunc: blockingRun(&runs, ended)})

	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	<-ended                           // attempt 1 timed out
	time.Sleep(50 * time.Millisecond) // well inside the 0.5-1s backoff
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("Shutdown blocked %s on a job in backoff", elapsed)
	}
	if st := e.snapshot(j); st.State != JobFailed || !strings.Contains(st.Error, ErrShutdown.Error()) {
		t.Errorf("job = %s (%q), want failed by the shutdown", st.State, st.Error)
	}
	if runs.Load() != 1 {
		t.Errorf("%d attempts, want 1: an attempt started after Shutdown began", runs.Load())
	}

	jnl2, recs2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl2.Close()
	if pending, _ := journal.Pending(recs2); len(pending) != 1 || pending[0].Key != j.Key {
		t.Errorf("journal pending = %+v, want the interrupted job", pending)
	}
}
