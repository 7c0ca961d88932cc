package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/rng"
)

// Stub behaviours a schedule draws per job key.
const (
	behaveOK     = iota // succeed at once
	behavePanic         // panic on every attempt
	behaveIOOnce        // fail the key's first run with faultinject.ErrIO
	behaveFail          // fail permanently
	behaveBlock         // block until released or the context ends
	behaveHang          // block without polling; drawn only with the watchdog armed
	numBehaviours
)

// scheduleStub is the runner a randomized schedule drives: each key's
// behaviour is a pure function of (seed, key), and blocked runs are
// released in generations.
type scheduleStub struct {
	seed     uint64
	hangable bool
	hang     chan struct{} // closed at cleanup: lets abandoned hung goroutines exit
	blocked  atomic.Int64  // runs parked in behaveBlock

	mu      sync.Mutex
	release chan struct{}
	runs    map[string]int
}

func newScheduleStub(seed uint64, hangable bool) *scheduleStub {
	return &scheduleStub{seed: seed, hangable: hangable, hang: make(chan struct{}),
		release: make(chan struct{}), runs: make(map[string]int)}
}

func (s *scheduleStub) behaviour(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	n := numBehaviours
	if !s.hangable {
		n = behaveHang
	}
	return rng.New(s.seed ^ h.Sum64()).Intn(n)
}

// releaseAll unblocks every run parked in behaveBlock so far.
func (s *scheduleStub) releaseAll() {
	s.mu.Lock()
	close(s.release)
	s.release = make(chan struct{})
	s.mu.Unlock()
}

func (s *scheduleStub) run(ctx context.Context, req Request) ([]byte, error) {
	key, err := req.Key()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.runs[key]++
	first := s.runs[key] == 1
	release := s.release
	s.mu.Unlock()
	switch s.behaviour(key) {
	case behavePanic:
		panic("schedule stub: deterministic crasher")
	case behaveIOOnce:
		if first {
			return nil, fmt.Errorf("schedule stub: %w", faultinject.ErrIO)
		}
	case behaveFail:
		return nil, errors.New("schedule stub: permanent failure")
	case behaveBlock:
		s.blocked.Add(1)
		defer s.blocked.Add(-1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	case behaveHang:
		<-s.hang
		return nil, errors.New("schedule stub: hung run returned")
	}
	return stubResultJSON(key), nil
}

// TestEngineRandomSchedule drives engines through seeded random
// schedules of submits (plain, past and far deadlines), synchronous
// waits whose clients disconnect, batch admissions, and releases of
// blocked runs, over a stub runner whose keys succeed, panic, fail once
// with a transient error, fail permanently, block, or hang. It ends
// every schedule with Shutdown and checks the engine-wide invariants:
// every accepted job settled, no queue slot leaked, the shed/abandon/
// watchdog counters never exceed the failures, every result is the
// stub's bytes, and with a journal attached the restart replays exactly
// the jobs the shutdown interrupted, once each.
func TestEngineRandomSchedule(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runSchedule(t, seed) })
	}
}

func runSchedule(t *testing.T, seed uint64) {
	r := rng.New(seed)
	durable := seed%3 == 0
	cfg := EngineConfig{
		Workers:         1 + r.Intn(3),
		QueueDepth:      4 + r.Intn(12),
		MaxRetries:      []int{-1, 0, 1}[r.Intn(3)],
		RetryBase:       time.Duration(1+r.Intn(4)) * time.Millisecond,
		QuarantineAfter: 1 + r.Intn(3),
		Watchdog:        -1,
	}
	// A durable schedule parks its blocked runs until Shutdown, so they
	// are exactly what the drain deadline interrupts: no job timeout and
	// no watchdog may end them first.
	if !durable {
		if r.Intn(2) == 0 {
			cfg.JobTimeout = time.Duration(15+r.Intn(25)) * time.Millisecond
		}
		if r.Intn(2) == 0 {
			cfg.Watchdog = time.Duration(30+r.Intn(30)) * time.Millisecond
		}
	}
	stub := newScheduleStub(seed, cfg.Watchdog > 0)
	t.Cleanup(func() { close(stub.hang) })
	cfg.runFunc = stub.run
	dir := t.TempDir()
	if durable {
		jnl, recs, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal, cfg.Replay = jnl, recs
	}
	e := NewEngine(cfg)

	var (
		mu       sync.Mutex
		accepted []*Job
		waited   []JobStatus
		waiters  sync.WaitGroup
	)
	accept := func(j *Job, err error) {
		switch {
		case err == nil:
			mu.Lock()
			accepted = append(accepted, j)
			mu.Unlock()
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDeadlineUnmeetable):
		default:
			t.Errorf("submit: %v", err)
		}
	}
	cell := func() Request {
		return Request{Benchmark: "eon", Cycles: 100_000 + int64(r.Intn(10)), Warmup: 10_000}
	}
	for op := 0; op < 30; op++ {
		switch r.Intn(7) {
		case 0, 1:
			accept(e.Submit(cell()))
		case 2:
			accept(e.SubmitOpts(cell(), SubmitOptions{Deadline: e.Now().Add(-time.Millisecond)}))
		case 3:
			accept(e.SubmitOpts(cell(), SubmitOptions{Deadline: e.Now().Add(time.Hour)}))
		case 4:
			req, delay := cell(), time.Duration(r.Intn(20))*time.Millisecond
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				ctx, cancel := context.WithTimeout(context.Background(), delay)
				defer cancel()
				st, err := e.SubmitWait(ctx, req, SubmitOptions{})
				switch {
				case err == nil:
					mu.Lock()
					waited = append(waited, st)
					mu.Unlock()
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrQueueFull):
				default:
					t.Errorf("SubmitWait: %v", err)
				}
			}()
		case 5:
			b, err := e.SubmitBatch(BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon"},
				Cycles: 200_000 + int64(r.Intn(3)), Warmup: 10_000})
			if err == nil {
				mu.Lock()
				accepted = append(accepted, b.cells...)
				mu.Unlock()
			} else if !errors.Is(err, ErrQueueFull) {
				t.Errorf("SubmitBatch: %v", err)
			}
		case 6:
			stub.releaseAll()
		}
		time.Sleep(time.Duration(r.Intn(3)) * time.Millisecond)
	}

	drain := time.Duration(10+r.Intn(50)) * time.Millisecond
	if durable {
		// Let every run that can end on its own do so, so the jobs still
		// live at Shutdown are exactly the queued and the blocked ones.
		waiters.Wait()
		waitQuiescent(t, e, stub)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	e.Shutdown(ctx)
	cancel()
	waiters.Wait()

	// Every job the engine still maps, plus every one a submitter saw.
	jobs := append([]*Job(nil), accepted...)
	e.mu.Lock()
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	for _, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %s not settled after Shutdown", j.Key)
		}
		st := e.snapshot(j)
		switch st.State {
		case JobDone:
			if want := stubResultJSON(j.Key); !bytes.Equal(st.Result, want) {
				t.Errorf("job %s result %s, want %s", j.Key, st.Result, want)
			}
		case JobFailed, JobQuarantined:
		default:
			t.Errorf("job %s left %s after Shutdown", j.Key, st.State)
		}
	}
	for _, st := range waited {
		if st.State == JobDone && !bytes.Equal(st.Result, stubResultJSON(st.Key)) {
			t.Errorf("waited job %s result %s", st.Key, st.Result)
		}
	}
	e.mu.Lock()
	q := e.queuedLocked()
	e.mu.Unlock()
	if q != 0 {
		t.Errorf("queued = %d after Shutdown", q)
	}
	m := e.Metrics()
	if early := m.JobsShedExpired + m.JobsClientAbandoned + m.JobsWatchdogFired; early > m.JobsFailed {
		t.Errorf("shed %d + abandoned %d + watchdog %d exceed failed %d",
			m.JobsShedExpired, m.JobsClientAbandoned, m.JobsWatchdogFired, m.JobsFailed)
	}
	if durable {
		checkReplay(t, e, dir)
	}
}

// waitQuiescent blocks until every live job is parked: running in a
// blocked stub run, or queued behind workers that all are.
func waitQuiescent(t *testing.T, e *Engine, stub *scheduleStub) {
	t.Helper()
	quiet := func() bool {
		var live int64
		e.mu.Lock()
		for _, j := range e.jobs {
			if j.state == JobQueued || j.state == JobRunning {
				live++
			}
		}
		q := int64(e.queuedLocked())
		e.mu.Unlock()
		run := e.running.Load()
		return run == stub.blocked.Load() && live == q+run && (q == 0 || run == int64(len(e.workers)))
	}
	// Two quiet readings in a row: the running and blocked counters are
	// read outside the engine lock.
	deadline := time.Now().Add(5 * time.Second)
	for streak := 0; streak < 2; time.Sleep(5 * time.Millisecond) {
		if streak++; !quiet() {
			streak = 0
		}
		if time.Now().After(deadline) {
			t.Fatal("schedule never quiesced")
		}
	}
}

// checkReplay reopens the journal of a shut-down engine: its pending set
// must be exactly the jobs Shutdown interrupted, and a second engine
// over it must run each of them once and leave nothing pending.
func checkReplay(t *testing.T, e *Engine, dir string) {
	t.Helper()
	want := map[string]bool{}
	e.mu.Lock()
	for key, j := range e.jobs {
		if j.state == JobFailed && (errors.Is(j.err, ErrShutdown) || errors.Is(j.err, context.Canceled)) {
			want[key] = true
		}
	}
	e.mu.Unlock()
	jnl, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending, _ := journal.Pending(recs)
	got := map[string]bool{}
	for _, rec := range pending {
		got[rec.Key] = true
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("journal pending %v, want the interrupted jobs %v", got, want)
	}

	var mu sync.Mutex
	runs := map[string]int{}
	e2 := NewEngine(EngineConfig{Workers: 2, QueueDepth: len(pending) + 1, Journal: jnl, Replay: recs,
		runFunc: func(ctx context.Context, req Request) ([]byte, error) {
			key, err := req.Key()
			mu.Lock()
			runs[key]++
			mu.Unlock()
			return stubResultJSON(key), err
		}})
	waitUntil(t, 5*time.Second, "replay to drain", func() bool {
		m := e2.Metrics()
		return m.Ready && m.JobsQueued == 0 && m.JobsRunning == 0 && m.JobsCompleted == uint64(len(pending))
	})
	shutdownEngine(t, e2)
	for key := range want {
		if runs[key] != 1 {
			t.Errorf("replay ran %s %d times, want once", key, runs[key])
		}
	}
	if len(runs) != len(want) {
		t.Errorf("replay ran %d keys, want %d", len(runs), len(want))
	}
	jnl3, recs3, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl3.Close()
	if p, _ := journal.Pending(recs3); len(p) != 0 {
		t.Errorf("%d jobs still pending after the replay engine drained", len(p))
	}
}
