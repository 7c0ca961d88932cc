package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
)

// stubEngine builds an engine whose run function is replaced: it blocks
// until release is closed (if non-nil), counts executions, and returns
// a valid result document derived from the request.
func stubEngine(t *testing.T, cfg EngineConfig, release <-chan struct{}, runs *atomic.Int64) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		if runs != nil {
			runs.Add(1)
		}
		if release != nil {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return []byte(`{"benchmark":"` + req.Benchmark + `","blocks":[],"avg_temp_k":[],"peak_temp_k":[]}`), nil
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	return e
}

func cellReq(bench string) Request {
	return Request{Benchmark: bench, Cycles: 100_000, Warmup: 10_000}
}

func TestRequestKeyStable(t *testing.T) {
	k1, err := cellReq("eon").Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := cellReq("eon").Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || !isKey(k1) {
		t.Fatalf("keys %q / %q not stable hex SHA-256", k1, k2)
	}
	// Defaults and explicit values share a key.
	explicit := Request{Benchmark: "eon", Cycles: experiments.DefaultCycles}
	defaulted := Request{Benchmark: "eon"}
	ke, _ := explicit.Key()
	kd, _ := defaulted.Key()
	if ke != kd {
		t.Error("explicit default cycles and omitted cycles hash differently")
	}
	// Different techniques hash differently.
	other := cellReq("eon")
	other.Techniques.IQ = config.IQToggle
	ko, _ := other.Key()
	if ko == k1 {
		t.Error("different techniques share a key")
	}

	// Literal pins: a key names a disk-cache entry and a journal record,
	// so any change to the canonical form must show up here first.
	for _, c := range []struct {
		name string
		key  func() (string, error)
		want string
	}{
		{"eon defaults", Request{Benchmark: "eon"}.Key,
			"5de4e7f90f7b9561689eee366f04d7a6c8ddf38b683b79722968f51a26838d30"},
		{"cellReq(eon)", cellReq("eon").Key,
			"d179f74817df8b132f07c8cff25842d48fb4154de9515cb3fd9eb0523901d2ef"},
		{"fig6 x eon batch", BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon"}, Cycles: 100_000}.Key,
			"22cc62e065ff700334e404e067250050b1b1e16d3af6e54918e534a3257e993e"},
		// A negative warmup normalizes to 0, as in every cell key.
		{"fig6 x eon batch, warmup -5", BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon"}, Cycles: 100_000, Warmup: -5}.Key,
			"22cc62e065ff700334e404e067250050b1b1e16d3af6e54918e534a3257e993e"},
	} {
		got, err := c.key()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: key %s, pinned %s", c.name, got, c.want)
		}
	}
}

func TestEngineSubmitRunsAndCaches(t *testing.T) {
	var runs atomic.Int64
	e := stubEngine(t, EngineConfig{Workers: 2, QueueDepth: 8}, nil, &runs)
	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Cached {
		t.Fatalf("first run: %+v", st)
	}

	// Second submission: served from cache, byte-identical, no new run.
	j2, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := e.Wait(context.Background(), j2.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != JobDone || !st2.Cached {
		t.Fatalf("second run not served from cache: %+v", st2)
	}
	if !bytes.Equal(st.Result, st2.Result) {
		t.Error("cached result bytes differ from the original")
	}
	if runs.Load() != 1 {
		t.Errorf("%d runs for two identical submissions", runs.Load())
	}
	m := e.Metrics()
	if m.Cache.Hits != 1 || m.JobsCompleted != 1 {
		t.Errorf("metrics = %+v, want 1 cache hit / 1 completed", m)
	}
}

// TestEngineConcurrentSingleFlight submits the same request from many
// goroutines while the only worker is blocked: exactly one run must
// execute, and every submitter shares it. Runs under -race in CI.
func TestEngineConcurrentSingleFlight(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 8}, release, &runs)

	first, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], errs[i] = e.Submit(cellReq("eon"))
		}(i)
	}
	wg.Wait()
	close(release)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if jobs[i] != first {
			t.Fatalf("submit %d got a distinct job: single-flight broken", i)
		}
	}
	if _, err := e.Wait(context.Background(), first.Key); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("%d runs for %d concurrent identical submissions", got, n+1)
	}
	if m := e.Metrics(); m.JobsDeduped != n {
		t.Errorf("deduped = %d, want %d", m.JobsDeduped, n)
	}
}

func TestEngineQueueFull(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 1}, release, nil)

	// First job occupies the worker, second fills the queue.
	if _, err := e.Submit(cellReq("eon")); err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e)
	if _, err := e.Submit(cellReq("gzip")); err != nil {
		t.Fatal(err)
	}
	_, err := e.Submit(cellReq("art"))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: %v, want ErrQueueFull", err)
	}
}

// TestEngineDispatchFIFO: with every worker busy, queued jobs start in
// submission order, whichever worker frees up next.
func TestEngineDispatchFIFO(t *testing.T) {
	started := make(chan int64, 16)
	release := make(chan struct{})
	e := NewEngine(EngineConfig{
		Workers:    2,
		QueueDepth: 16,
		runFunc: func(ctx context.Context, req Request) ([]byte, error) {
			started <- req.Cycles
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResultJSON(req.Benchmark), nil
		},
	})
	defer func() {
		close(release)
		shutdownEngine(t, e)
	}()
	submit := func(cycles int64) {
		t.Helper()
		if _, err := e.Submit(Request{Benchmark: "eon", Cycles: cycles, Warmup: 10_000}); err != nil {
			t.Fatal(err)
		}
	}
	next := func() int64 {
		t.Helper()
		select {
		case c := <-started:
			return c
		case <-time.After(5 * time.Second):
			t.Fatal("no job started")
			return 0
		}
	}

	submit(1)
	submit(2)
	next()
	next() // both workers held
	for c := int64(101); c <= 108; c++ {
		submit(c)
	}
	var order []int64
	for i := 0; i < 8; i++ {
		// End one running job: its worker, the only free one, starts the
		// next queued job.
		select {
		case release <- struct{}{}:
		case <-time.After(5 * time.Second):
			t.Fatal("no running job to release")
		}
		order = append(order, next())
	}
	for i, c := range order {
		if c != 101+int64(i) {
			t.Fatalf("start order %v, want 101 to 108 in submission order", order)
		}
	}
}

func waitForRunning(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if e.Metrics().JobsRunning > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no job entered the running state")
}

func TestEngineJobTimeout(t *testing.T) {
	release := make(chan struct{}) // never released: the stub blocks until ctx fires
	defer close(release)
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 4, JobTimeout: 20 * time.Millisecond}, release, nil)
	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), j.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("timed-out job: %+v", st)
	}
	if m := e.Metrics(); m.JobsFailed != 1 {
		t.Errorf("failed = %d, want 1", m.JobsFailed)
	}
	// A failed key is retried on resubmission, not served from a cache.
	j2, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	if j2 == j {
		t.Error("failed job was replayed instead of re-enqueued")
	}
}

func TestEngineInvalidRequestRejected(t *testing.T) {
	e := stubEngine(t, EngineConfig{Workers: 1}, nil, nil)
	if _, err := e.Submit(cellReq("doom3")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestEngineShutdownDrainsRunning(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	e := NewEngine(EngineConfig{Workers: 1, QueueDepth: 4})
	done := make(chan struct{})
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		runs.Add(1)
		select {
		case <-release:
			return []byte(`{"benchmark":"x","blocks":[],"avg_temp_k":[],"peak_temp_k":[]}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	running, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e)
	queued, err := e.Submit(cellReq("gzip"))
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release) // the running job completes during the drain
	}()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("drain within deadline failed: %v", err)
		}
		close(done)
	}()
	<-done

	st, _ := e.Job(running.Key)
	if st.State != JobDone {
		t.Errorf("running job was not drained: %+v", st)
	}
	qst, _ := e.Job(queued.Key)
	if qst.State != JobFailed || !strings.Contains(qst.Error, "shutting down") {
		t.Errorf("queued job not failed fast at shutdown: %+v", qst)
	}
	if _, err := e.Submit(cellReq("art")); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after shutdown: %v", err)
	}
}

func TestEngineShutdownDeadlineCancelsRuns(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 1, QueueDepth: 4})
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		<-ctx.Done() // only a cancelled context ends this job
		return nil, ctx.Err()
	}
	j, err := e.Submit(cellReq("eon"))
	if err != nil {
		t.Fatal(err)
	}
	waitForRunning(t, e)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("shutdown did not force-cancel the stuck job")
	}
	st, _ := e.Job(j.Key)
	if st.State != JobFailed {
		t.Errorf("stuck job after forced shutdown: %+v", st)
	}
}

func TestEngineBatchSubmitAggregates(t *testing.T) {
	var runs atomic.Int64
	e := stubEngine(t, EngineConfig{Workers: 4, QueueDepth: 16}, nil, &runs)
	breq := BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon", "gzip"}, Cycles: 100_000, Warmup: 10_000}
	b, err := e.SubmitBatch(breq)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.WaitBatch(context.Background(), b.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || len(st.Cells) != 4 { // 2 benchmarks × 2 variants
		t.Fatalf("batch = %+v", st)
	}
	if runs.Load() != 4 {
		t.Errorf("%d runs for a 4-cell batch", runs.Load())
	}

	// The batch shares the cell cache: fig6's base/toggling cells for eon
	// are already cached, so a single-benchmark resubmission runs nothing.
	b2, err := e.SubmitBatch(BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon"}, Cycles: 100_000, Warmup: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := e.WaitBatch(context.Background(), b2.Key)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != JobDone {
		t.Fatalf("second batch: %+v", st2)
	}
	if runs.Load() != 4 {
		t.Errorf("cached cells re-ran: %d total runs", runs.Load())
	}
	for _, c := range st2.Cells {
		if !c.Cached {
			t.Errorf("cell %s/%s not marked cached", c.Benchmark, c.Variant)
		}
	}

	// Matrix assembly gives the paper-style report.
	m, err := e.BatchMatrix(b.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Report(); !strings.Contains(got, "Issue-queue") {
		t.Errorf("batch report missing title:\n%s", got)
	}
}

func TestEngineBatchRejectedWhenQueueCannotHoldIt(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 2}, release, nil)
	// fig6 × 2 benchmarks = 4 cells > queue 2 (+1 running).
	_, err := e.SubmitBatch(BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon", "gzip"}, Cycles: 100_000})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized batch: %v, want ErrQueueFull", err)
	}
	if m := e.Metrics(); m.JobsQueued != 0 {
		t.Errorf("rejected batch left %d jobs enqueued", m.JobsQueued)
	}
}

func TestEngineUnknownExperiment(t *testing.T) {
	e := stubEngine(t, EngineConfig{Workers: 1}, nil, nil)
	for _, c := range []struct {
		breq BatchRequest
		want string
	}{
		{BatchRequest{Experiment: "fig9"}, "unknown experiment"},
		// Four cells with two keys: rejected, rather than counted as four
		// queue slots under a batch key of its own.
		{BatchRequest{Experiment: "fig6", Benchmarks: []string{"gzip", "gzip"}, Cycles: 100_000}, `"gzip" twice`},
	} {
		_, err := e.SubmitBatch(c.breq)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want %q", c.breq, err, c.want)
		}
	}
}

// TestBatchResubmitNegativeWarmupDedups: a matrix resubmitted with
// warmup -5 is the same matrix as with warmup 0, so it must count a
// dedup rather than register a second Batch.
func TestBatchResubmitNegativeWarmupDedups(t *testing.T) {
	e := stubEngine(t, EngineConfig{Workers: 1, QueueDepth: 8}, nil, nil)
	breq := BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon"}, Cycles: 100_000}
	b1, err := e.SubmitBatch(breq)
	if err != nil {
		t.Fatal(err)
	}
	breq.Warmup = -5
	b2, err := e.SubmitBatch(breq)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("resubmitting the same matrix with warmup -5 registered a second batch")
	}
	if m := e.Metrics(); m.JobsDeduped != 1 {
		t.Errorf("jobs_deduped = %d, want 1", m.JobsDeduped)
	}
}

func TestBatchAndCellKeysDisjoint(t *testing.T) {
	b := BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon"}, Cycles: 100_000}
	bk, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	_, cells, err := b.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		ck, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		if ck == bk {
			t.Fatalf("cell key %s collides with batch key", ck)
		}
	}
	if len(cells) != 2 {
		t.Fatalf("fig6×eon expands to %d cells, want 2", len(cells))
	}
}
