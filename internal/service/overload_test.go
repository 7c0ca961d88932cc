// Tests for the overload-protection and graceful-degradation layer:
// deadline admission shedding, queued-job expiry, client abandonment,
// the stuck-attempt watchdog, the disk circuit breakers with their
// degraded modes, and the health state machine behind /readyz and the
// /metrics health section. See DESIGN.md, "Overload and degraded
// modes".
package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// waitUntil polls cond every few milliseconds until it holds or the
// deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestEngineAdmissionShedsUnmeetableDeadline(t *testing.T) {
	release := make(chan struct{})
	clk := faultinject.NewClock(time.Now())
	inj := faultinject.New()
	inj.SetClock(clk)
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 8, Inject: inj}, release, nil)
	defer close(release)

	// Occupy the worker and put one job in the queue, then pretend
	// recent jobs have been taking a minute each.
	if _, err := e.Submit(cellReq("eon")); err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e)
	if _, err := e.Submit(cellReq("gzip")); err != nil {
		t.Fatal(err)
	}
	e.noteLatency(time.Minute)

	// One queued job x one minute per job cannot finish within a second.
	_, err := e.SubmitOpts(cellReq("art"), SubmitOptions{Deadline: e.Now().Add(time.Second)})
	if !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Fatalf("err = %v, want ErrDeadlineUnmeetable", err)
	}
	m := e.Metrics()
	if m.JobsShedAdmission != 1 {
		t.Errorf("jobs_shed_admission = %d, want 1", m.JobsShedAdmission)
	}
	if m.QueueWaitEWMAMS == 0 {
		t.Error("queue_wait_ewma_ms not exported")
	}
	if s := e.RetryAfterSeconds(); s < 1 {
		t.Errorf("Retry-After = %ds, want >= 1", s)
	}

	// The shed drives the health machine overloaded, which fails
	// readiness; after the hysteresis hold it recovers on its own.
	if state, _ := e.Health(); state != HealthOverloaded {
		t.Errorf("health after shed = %s, want overloaded", state)
	}
	if ready, reason := e.Ready(); ready || reason != "overloaded" {
		t.Errorf("Ready() = %v %q during overload", ready, reason)
	}
	clk.Advance(overloadHold + time.Millisecond)
	if state, _ := e.Health(); state != HealthHealthy {
		t.Errorf("health after the overload hold = %s, want healthy", state)
	}

	// A roomy deadline is admitted even with the EWMA primed.
	if _, err := e.SubmitOpts(cellReq("mesa"), SubmitOptions{Deadline: e.Now().Add(time.Hour)}); err != nil {
		t.Fatalf("roomy deadline rejected: %v", err)
	}

	// Two workers drain the queue twice as fast: two jobs queued behind
	// two running ones at a minute per job is a one-minute wait, for
	// admission and Retry-After alike.
	release2 := make(chan struct{})
	e2 := stubEngine(t, EngineConfig{Workers: 2, QueueDepth: 8}, release2, nil)
	defer close(release2)
	for _, b := range []string{"eon", "gzip"} {
		if _, err := e2.Submit(cellReq(b)); err != nil {
			t.Fatal(err)
		}
	}
	waitRunningN(t, e2, 2)
	for _, b := range []string{"art", "mesa"} {
		if _, err := e2.Submit(cellReq(b)); err != nil {
			t.Fatal(err)
		}
	}
	e2.noteLatency(time.Minute)
	if s := e2.RetryAfterSeconds(); s != 60 {
		t.Errorf("two workers: Retry-After = %ds, want 60", s)
	}
	if _, err := e2.SubmitOpts(cellReq("mcf"), SubmitOptions{Deadline: e2.Now().Add(30 * time.Second)}); !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Errorf("two workers, 30s deadline: err = %v, want ErrDeadlineUnmeetable", err)
	}
	if _, err := e2.SubmitOpts(cellReq("mcf"), SubmitOptions{Deadline: e2.Now().Add(90 * time.Second)}); err != nil {
		t.Errorf("two workers, 90s deadline rejected: %v", err)
	}

	// A batch's deadline is admitted with its capacity, before any cell
	// is enqueued: with the worker busy, the last of four cold cells
	// waits behind three at a minute each, so a 90 s deadline rejects
	// the whole batch and leaves nothing queued, and a 200 s one admits
	// it.
	release3 := make(chan struct{})
	e3 := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 8}, release3, nil)
	defer close(release3)
	if _, err := e3.Submit(cellReq("eon")); err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e3)
	e3.noteLatency(time.Minute)
	breq := BatchRequest{Experiment: "fig6", Benchmarks: []string{"gzip", "mcf"}, Cycles: 100_000, Warmup: 10_000}
	if _, err := e3.SubmitBatchOpts(breq, SubmitOptions{Deadline: e3.Now().Add(90 * time.Second)}); !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Fatalf("batch, 90s deadline: err = %v, want ErrDeadlineUnmeetable", err)
	}
	if q := e3.Metrics().JobsQueued; q != 0 {
		t.Errorf("rejected batch left %d cells queued, want 0", q)
	}
	b, err := e3.SubmitBatchOpts(breq, SubmitOptions{Deadline: e3.Now().Add(200 * time.Second)})
	if err != nil {
		t.Fatalf("batch, 200s deadline rejected: %v", err)
	}
	if n, q := len(b.cells), e3.Metrics().JobsQueued; n != 4 || q != 4 {
		t.Errorf("admitted batch has %d cells and %d queued, want 4 and 4", n, q)
	}
}

func TestEngineQueuedJobShedsOnExpiredDeadline(t *testing.T) {
	release := make(chan struct{})
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 8}, release, nil)

	if _, err := e.Submit(cellReq("eon")); err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e)
	j, err := e.SubmitOpts(cellReq("gzip"), SubmitOptions{Deadline: e.Now().Add(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // deadline passes while queued
	close(release)

	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, ErrDeadlineExpired.Error()) {
		t.Fatalf("expired job settled %s (%q), want failed with deadline error", st.State, st.Error)
	}
	waitUntil(t, time.Second, "shed counter", func() bool {
		return e.Metrics().JobsShedExpired == 1
	})
}

func TestEngineDefaultDeadlineApplies(t *testing.T) {
	release := make(chan struct{})
	e := stubEngine(t, EngineConfig{
		Workers: 1, QueueDepth: 8,
		DefaultDeadline: 20 * time.Millisecond, maxRetries: -1,
	}, release, nil)

	// Two jobs: one holds the worker, one waits out its default
	// deadline in the queue. Neither submission names a deadline.
	if _, err := e.Submit(cellReq("eon")); err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e)
	j, err := e.Submit(cellReq("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("default deadline not applied: %s (%q)", st.State, st.Error)
	}
}

func TestEngineSubmitWaitClientAbandon(t *testing.T) {
	release := make(chan struct{})
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 8}, release, nil)

	if _, err := e.Submit(cellReq("eon")); err != nil { // holds the worker
		t.Fatal(err)
	}
	waitForRunning(t, e)

	// A synchronous submitter queues a job and disconnects. Nobody else
	// wants it, so the worker must shed it instead of running it.
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := e.SubmitWait(ctx, cellReq("gzip"), SubmitOptions{})
		errCh <- err
	}()
	key, _ := cellReq("gzip").Normalize().Key()
	waitUntil(t, time.Second, "job to queue", func() bool {
		_, ok := e.Job(key)
		return ok
	})
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitWait after disconnect = %v, want context.Canceled", err)
	}
	// Free the worker so it reaches the abandoned job in its queue.
	close(release)
	waitUntil(t, time.Second, "abandoned job to settle", func() bool {
		st, ok := e.Job(key)
		return ok && st.State == JobFailed
	})
	st, _ := e.Job(key)
	if !strings.Contains(st.Error, ErrAbandoned.Error()) {
		t.Errorf("abandoned job error = %q", st.Error)
	}
	if n := e.Metrics().JobsClientAbandoned; n != 1 {
		t.Errorf("jobs_client_abandoned = %d, want 1", n)
	}

	// A failed key is resubmittable: the abandonment cost nothing
	// durable.
	if _, err := e.Submit(cellReq("gzip")); err != nil {
		t.Errorf("resubmit after abandonment: %v", err)
	}
}

func TestEngineAsyncJoinPinsAgainstAbandon(t *testing.T) {
	release := make(chan struct{})
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 8}, release, nil)

	if _, err := e.Submit(cellReq("eon")); err != nil { // holds the worker
		t.Fatal(err)
	}
	waitForRunning(t, e)

	// Async submit first (pinned), then a synchronous waiter joins the
	// same job and disconnects: the async submitter still wants the
	// result, so the job must run to completion.
	j, err := e.Submit(cellReq("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := e.SubmitWait(ctx, cellReq("gzip"), SubmitOptions{})
		errCh <- err
	}()
	waitUntil(t, time.Second, "waiter to register", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return j.waiters == 1
	})
	cancel()
	<-errCh
	close(release)

	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("pinned job settled %s (%q), want done", st.State, st.Error)
	}
	if n := e.Metrics().JobsClientAbandoned; n != 0 {
		t.Errorf("jobs_client_abandoned = %d for a pinned job", n)
	}
}

func TestEngineWatchdogFiresOnStuckRun(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	e := NewEngine(EngineConfig{Workers: 1, QueueDepth: 4, Watchdog: 50 * time.Millisecond})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	// A run that neither returns nor polls its context: a wedged
	// simulator. The watchdog must shoot it; cancellation alone cannot.
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		<-hang
		return nil, errors.New("unreachable")
	}

	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "no progress") {
		t.Fatalf("stuck job settled %s (%q), want watchdog failure", st.State, st.Error)
	}
	if n := e.Metrics().JobsWatchdogFired; n != 1 {
		t.Errorf("jobs_watchdog_fired = %d, want 1", n)
	}
}

func TestEngineWatchdogSparesPollingRun(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1, QueueDepth: 4, Watchdog: 40 * time.Millisecond})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	// Slower than the watchdog period but polling its context the way
	// the simulator's sensor-interval loop does: never shot.
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		for i := 0; i < 40; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			time.Sleep(5 * time.Millisecond)
		}
		return []byte(`{"benchmark":"eon","blocks":[],"avg_temp_k":[],"peak_temp_k":[]}`), nil
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
		t.Fatalf("slow-but-alive job settled %s (%q)", st.State, st.Error)
	}
	if n := e.Metrics().JobsWatchdogFired; n != 0 {
		t.Errorf("jobs_watchdog_fired = %d for a polling run", n)
	}
}

// TestEngineJournalBreakerDegradesAndRecovers is the durability=none
// contract end to end: a run of journal failures opens the breaker,
// the engine keeps serving (appends skipped, results marked
// non-journaled, still ready), and when the disk recovers the engine
// re-journals outstanding state so a restart replays exactly the live
// set — here, nothing.
func TestEngineJournalBreakerDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	jnl, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New()
	jnl.Inject = inj

	release := make(chan struct{})
	e := stubEngine(t, EngineConfig{
		Workers: 1, QueueDepth: 8,
		Journal: jnl, Replay: recs, Inject: inj,
		breakerFailures: 2, breakerCooldown: 50 * time.Millisecond,
	}, release, nil)
	waitUntil(t, 2*time.Second, "replay", func() bool { ready, _ := e.Ready(); return ready })

	// Job A's submit record lands while the disk is healthy.
	ja, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e)

	// Disk dies. A's done record and B's submit record both fail,
	// opening the breaker (threshold 2); B's done record is skipped
	// outright.
	inj.ArmPersistent(faultinject.SiteJournalAppend, faultinject.Outcome{Err: faultinject.ErrNoSpace})
	inj.ArmPersistent(faultinject.SiteJournalRewrite, faultinject.Outcome{Err: faultinject.ErrNoSpace})
	close(release)
	if _, err := e.Wait(context.Background(), ja.Key); err != nil {
		t.Fatal(err)
	}
	jb, err := e.Submit(cellReq("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	stb, err := e.Wait(context.Background(), jb.Key)
	if err != nil {
		t.Fatal(err)
	}

	m := e.Metrics()
	if m.Durability != "none" {
		t.Fatalf("durability = %q after journal failures, want none", m.Durability)
	}
	if m.JournalBreaker.State != "open" {
		t.Errorf("journal breaker = %q, want open", m.JournalBreaker.State)
	}
	if stb.State != JobDone || !stb.NonJournaled {
		t.Errorf("degraded-mode job = %+v, want done and non_journaled", stb)
	}
	if ready, _ := e.Ready(); !ready {
		t.Error("degraded engine stopped reporting ready")
	}
	if state, _ := e.Health(); state != HealthDegraded {
		t.Errorf("health = %s, want degraded", state)
	}

	// Disk comes back. The maintenance loop probes it, closes the
	// breaker, and re-journals the live set — all without traffic.
	inj.DisarmPersistent(faultinject.SiteJournalAppend)
	inj.DisarmPersistent(faultinject.SiteJournalRewrite)
	waitUntil(t, 3*time.Second, "durability recovery", func() bool {
		return e.Metrics().Durability == "journaled"
	})
	if n := e.Metrics().JournalSkipped; n == 0 {
		t.Error("journal_skipped = 0 despite skipped appends")
	}

	// A restart replays nothing: both jobs settled, and the re-journal
	// compacted their records (including A's stale submit, which the
	// dead disk never saw terminate) out of the WAL.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	jnl2, recs2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	pending, quarantined := journal.Pending(recs2)
	if len(pending) != 0 || len(quarantined) != 0 {
		t.Fatalf("restart would replay %d pending / %d quarantined, want none", len(pending), len(quarantined))
	}
}

func TestEngineCacheBreakerDegradesToMemory(t *testing.T) {
	cache, err := NewCache(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New()
	cache.SetInjector(inj)
	e := stubEngine(t, EngineConfig{
		Workers: 1, QueueDepth: 8, Cache: cache, Inject: inj,
		breakerFailures: 2, breakerCooldown: 30 * time.Millisecond,
	}, nil, nil)

	// Every disk touch fails: each cell costs a failed read (miss path)
	// and a failed write (store path), so the second cell trips the
	// breaker.
	inj.ArmPersistent(faultinject.SiteCacheRead, faultinject.Outcome{Err: faultinject.ErrNoSpace})
	inj.ArmPersistent(faultinject.SiteCacheWrite, faultinject.Outcome{Err: faultinject.ErrNoSpace})
	for _, b := range []string{"eon", "gzip"} {
		j, err := e.Submit(cellReq(b))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Wait(context.Background(), j.Key); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.CacheDegraded != 1 {
		t.Fatalf("cache_degraded = %d with the disk dead, want 1 (breaker %+v)", m.CacheDegraded, m.CacheBreaker)
	}
	if state, _ := e.Health(); state != HealthDegraded {
		t.Errorf("health = %s, want degraded", state)
	}

	// Memory-only service continues: a repeat of a computed cell is a
	// hit without touching the disk.
	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || !st.Cached {
		t.Errorf("memory hit during degraded mode = %+v", st)
	}

	// Disk recovers: the next miss after the cooldown is the half-open
	// probe, and a clean miss (ENOENT) closes the breaker. Each poll
	// submits a fresh key — a repeat would be a memory hit and never
	// consult the disk.
	inj.DisarmPersistent(faultinject.SiteCacheRead)
	inj.DisarmPersistent(faultinject.SiteCacheWrite)
	probe := int64(0)
	waitUntil(t, 2*time.Second, "cache breaker recovery", func() bool {
		req := cellReq("art")
		req.Cycles += probe
		probe++
		j, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Wait(context.Background(), j.Key); err != nil {
			t.Fatal(err)
		}
		return e.Metrics().CacheDegraded == 0
	})
}

// TestEngineHealthSnapshot reads the health facts an operator needs
// from one Metrics snapshot and Ready: state, readiness and its reason,
// durability, the entered counters, and the switch to draining.
func TestEngineHealthSnapshot(t *testing.T) {
	e := stubEngine(t, EngineConfig{Workers: 2, QueueDepth: 16}, nil, nil)
	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(context.Background(), j.Key); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	ready, reason := e.Ready()
	if m.Health.State != "healthy" || !m.Ready || !ready || reason != "" {
		t.Errorf("health = %q ready=%v/%v reason=%q", m.Health.State, m.Ready, ready, reason)
	}
	if m.Durability != "off" {
		t.Errorf("durability = %q without a journal, want off", m.Durability)
	}
	if m.Health.Entered["healthy"] == 0 {
		t.Error("healthy state never counted as entered")
	}

	e.BeginDrain()
	m = e.Metrics()
	ready, reason = e.Ready()
	if m.Health.State != "draining" || m.Ready || ready || reason != "draining" {
		t.Errorf("during drain: health = %q ready=%v/%v reason=%q", m.Health.State, m.Ready, ready, reason)
	}
}

func TestServerDeadlineShedIs429WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 8}, release, nil)
	defer close(release)
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	if _, err := e.Submit(cellReq("eon")); err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e)
	if _, err := e.Submit(cellReq("gzip")); err != nil {
		t.Fatal(err)
	}
	e.noteLatency(time.Minute)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"art","deadline_ms":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("429 body: %s", body)
	}
}

// TestServerHealthMetrics checks the health facts /metrics serves: the
// health state, readiness and both breaker states.
func TestServerHealthMetrics(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics body %s: %v", body, err)
	}
	if m.Health.State != "healthy" || !m.Ready {
		t.Errorf("health = %q ready=%v", m.Health.State, m.Ready)
	}
	if m.CacheBreaker.State != "closed" || m.JournalBreaker.State != "closed" {
		t.Errorf("breakers: cache %+v journal %+v", m.CacheBreaker, m.JournalBreaker)
	}
	if code, _ := get(t, ts.URL+"/statusz"); code != http.StatusNotFound {
		t.Errorf("/statusz answered %d, want 404", code)
	}
}

func TestServerWaitClientDisconnectAbandonsJob(t *testing.T) {
	release := make(chan struct{})
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 8}, release, nil)
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	if _, err := e.Submit(cellReq("eon")); err != nil { // holds the worker
		t.Fatal(err)
	}
	waitForRunning(t, e)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs?wait=1",
		strings.NewReader(`{"benchmark":"gzip"}`))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	// The wire request carries only the benchmark, so its key is the
	// defaulted request's key, not cellReq's.
	key, _ := Request{Benchmark: "gzip"}.Normalize().Key()
	waitUntil(t, time.Second, "job to queue", func() bool {
		_, ok := e.Job(key)
		return ok
	})
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled request returned no error")
	}
	// The client has given up, but the server notices asynchronously:
	// hold the worker until the handler's SubmitWait has actually
	// cancelled the job, or the job would just run to completion.
	waitUntil(t, 2*time.Second, "server to abandon the job", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		j := e.jobs[key]
		return j != nil && j.runCtx != nil && context.Cause(j.runCtx) == ErrAbandoned
	})
	close(release)
	waitUntil(t, 2*time.Second, "abandon accounting", func() bool {
		return e.Metrics().JobsClientAbandoned == 1
	})
}
