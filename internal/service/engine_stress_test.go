package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// stubResultJSON is the minimal result body the stress stubs return —
// shaped like a sim result so finish() can fold it without error noise.
func stubResultJSON(bench string) []byte {
	return []byte(`{"benchmark":"` + bench + `","blocks":[],"avg_temp_k":[],"peak_temp_k":[]}`)
}

// TestEngineStressConcurrent hammers one engine from hundreds of
// goroutines mixing duplicate keys, distinct keys, Status probes, and
// Waits, under -race in CI. It asserts the engine's global accounting
// survives the melee: every submission either settles done or was
// refused with ErrQueueFull, the hot duplicate key ran exactly once
// (single-flight), and the final counters balance.
func TestEngineStressConcurrent(t *testing.T) {
	var hotRuns atomic.Int64
	e := NewEngine(EngineConfig{
		Workers:    8,
		QueueDepth: 32,
		runFunc: func(ctx context.Context, req Request) ([]byte, error) {
			if req.Cycles == 100_000 {
				hotRuns.Add(1)
			}
			return stubResultJSON(req.Benchmark), nil
		},
	})
	defer shutdownEngine(t, e)

	hot := Request{Benchmark: "eon", Cycles: 100_000, Warmup: 10_000}
	hotKey, err := hot.Key()
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 200
		perG       = 50
	)
	var (
		wg       sync.WaitGroup
		rejected atomic.Int64
		settled  atomic.Int64
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := hot
				if i%3 == 0 { // distinct key per (g, i)
					req = Request{Benchmark: "eon", Cycles: int64(200_000 + g*perG + i), Warmup: 10_000}
				}
				j, err := e.Submit(req)
				if err != nil {
					if err != ErrQueueFull {
						t.Errorf("Submit: %v", err)
					}
					rejected.Add(1)
					continue
				}
				if i%5 == 0 { // interleave Status probes with the churn
					if _, ok := e.Job(j.Key); !ok {
						t.Errorf("Job(%s) lost a just-submitted key", j.Key)
					}
				}
				st, err := e.Wait(ctx, j.Key)
				if err != nil {
					t.Errorf("Wait: %v", err)
					continue
				}
				if st.State != JobDone {
					t.Errorf("job %s settled %s: %s", j.Key, st.State, st.Error)
				}
				settled.Add(1)
			}
		}(g)
	}
	wg.Wait()

	if n := hotRuns.Load(); n != 1 {
		t.Errorf("hot key ran %d times, want exactly 1 (single-flight + cache)", n)
	}
	if settled.Load()+rejected.Load() != goroutines*perG {
		t.Errorf("accounting leak: settled %d + rejected %d != %d",
			settled.Load(), rejected.Load(), goroutines*perG)
	}
	m := e.Metrics()
	if m.JobsQueued != 0 {
		t.Errorf("JobsQueued = %d after drain, want 0", m.JobsQueued)
	}
	if m.JobsFailed != 0 {
		t.Errorf("JobsFailed = %d, want 0", m.JobsFailed)
	}
	if st, ok := e.Job(hotKey); !ok || st.State != JobDone {
		t.Errorf("hot key status = %+v, %v", st, ok)
	}
}

// TestEngineStress429Accounting pins exact backpressure accounting at
// capacity: with workers gated shut, concurrent submitters
// racing distinct keys get exactly QueueDepth admissions and every
// other submission is refused with ErrQueueFull.
func TestEngineStress429Accounting(t *testing.T) {
	release := make(chan struct{})
	e := NewEngine(EngineConfig{
		Workers:    4,
		QueueDepth: 16,
		runFunc: func(ctx context.Context, req Request) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResultJSON(req.Benchmark), nil
		},
	})
	defer shutdownEngine(t, e)

	// Fill every worker with a running job so queue slots only drain
	// into busy workers and the queue bound is the binding constraint.
	running := make([]*Job, 4)
	for i := range running {
		j, err := e.Submit(Request{Benchmark: "eon", Cycles: int64(1_000_000 + i), Warmup: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		running[i] = j
	}
	waitRunningN(t, e, 4)

	const submitters = 64
	var (
		wg       sync.WaitGroup
		admitted atomic.Int64
		refused  atomic.Int64
	)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, err := e.Submit(Request{Benchmark: "eon", Cycles: int64(2_000_000 + s*4 + i), Warmup: 10_000})
				switch err {
				case nil:
					admitted.Add(1)
				case ErrQueueFull:
					refused.Add(1)
				default:
					t.Errorf("Submit: %v", err)
				}
			}
		}(s)
	}
	wg.Wait()

	if n := admitted.Load(); n != 16 {
		t.Errorf("admitted %d jobs at QueueDepth 16, want exactly 16", n)
	}
	if admitted.Load()+refused.Load() != submitters*4 {
		t.Errorf("accounting leak: admitted %d + refused %d != %d",
			admitted.Load(), refused.Load(), submitters*4)
	}
	if m := e.Metrics(); m.JobsQueued != 16 {
		t.Errorf("JobsQueued = %d, want 16", m.JobsQueued)
	}
	close(release)
}

// TestEngineStressBatchAllOrNothing races batch submissions against a
// swarm of single-cell submitters around a tiny queue and asserts batch
// admission never wedges half in: every batch either has all its cells
// tracked (each one queued, running, done, or deduped onto a live job)
// or was rejected whole with ErrQueueFull — observed cell-by-cell the
// moment SubmitBatch returns.
func TestEngineStressBatchAllOrNothing(t *testing.T) {
	release := make(chan struct{})
	var gate sync.Once
	e := NewEngine(EngineConfig{
		Workers:    4,
		QueueDepth: 8, // fig6/eon+gzip needs 12 slots when cold
		runFunc: func(ctx context.Context, req Request) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResultJSON(req.Benchmark), nil
		},
	})
	defer func() {
		gate.Do(func() { close(release) })
		shutdownEngine(t, e)
	}()

	// Racing phase: workers gated shut, batch submitters (each attempt a
	// distinct batch, so each is its own admission) race single-cell
	// churners for the 8 queue slots. Admission may or may not win any
	// given race — the property under test is that whichever way it
	// goes, nothing is ever half-admitted: an ErrQueueFull batch
	// enqueued no cell, an admitted one has every cell live.
	var wg sync.WaitGroup
	for s := 0; s < 16; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if s%2 == 0 {
					// Churn single cells to race the batch's admission.
					_, err := e.Submit(Request{Benchmark: "eon", Cycles: int64(3_000_000 + s*8 + i), Warmup: 10_000})
					if err != nil && err != ErrQueueFull {
						t.Errorf("Submit: %v", err)
					}
					continue
				}
				breq := BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon"}, Cycles: int64(4_000_000 + s*8 + i), Warmup: 10_000}
				b, err := e.SubmitBatch(breq)
				if err == ErrQueueFull {
					continue // rejected whole; nothing enqueued (checked below)
				}
				if err != nil {
					t.Errorf("SubmitBatch: %v", err)
					continue
				}
				// Admission promised every cell a live job: none may be
				// missing or failed at this instant.
				for _, cell := range b.cells {
					st := e.snapshot(cell)
					if st.State == JobFailed {
						t.Errorf("batch admitted with failed cell %s: %s", cell.Key, st.Error)
					}
				}
			}
		}(s)
	}
	wg.Wait()

	// The queue can hold at most QueueDepth jobs no matter how the
	// races interleaved — a torn batch would have enqueued extras.
	if q := e.Metrics().JobsQueued; q > 8 {
		t.Errorf("JobsQueued = %d exceeds capacity 8", q)
	}

	// Deterministic phase: open the gate so the backlog drains, then an
	// admission that lost every race above must eventually succeed and
	// settle completely.
	gate.Do(func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	breq := BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon", "gzip"}, Cycles: 100_000, Warmup: 10_000}
	var bkey string
	for {
		b, err := e.SubmitBatch(breq)
		if err == nil {
			bkey = b.Key
			break
		}
		if err != ErrQueueFull {
			t.Fatalf("SubmitBatch: %v", err)
		}
		select {
		case <-ctx.Done():
			t.Fatal("batch was never admitted after workers were released")
		case <-time.After(time.Millisecond):
		}
	}
	st, err := e.WaitBatch(ctx, bkey)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("batch settled %s: %s", st.State, st.Error)
	}
}

// waitRunningN polls until exactly n jobs are running simultaneously.
func waitRunningN(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if e.Metrics().JobsRunning >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("never saw %d jobs running (now %d)", n, e.Metrics().JobsRunning)
}

func mustKey(t *testing.T, r Request) string {
	t.Helper()
	k, err := r.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestEngineStressBatchAdmissionVsShutdown lands Shutdown in the
// middle of a storm of batch and single-cell admissions, under -race
// in CI. The properties: no job is left in the run queue after the
// shutdown, and the journal's pending set replays exactly — a
// restarted engine runs each interrupted job once and drains
// completely.
func TestEngineStressBatchAdmissionVsShutdown(t *testing.T) {
	dir := t.TempDir()
	jnl, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	e := NewEngine(EngineConfig{
		Workers: 4, QueueDepth: 16,
		Journal: jnl, Replay: recs,
		runFunc: func(ctx context.Context, req Request) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResultJSON(req.Benchmark), nil
		},
	})

	var wg sync.WaitGroup
	for s := 0; s < 12; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if s%2 == 0 {
					_, err := e.Submit(Request{Benchmark: "eon", Cycles: int64(5_000_000 + s*16 + i), Warmup: 10_000})
					if err != nil && err != ErrQueueFull && err != ErrShutdown {
						t.Errorf("Submit: %v", err)
					}
					continue
				}
				breq := BatchRequest{Experiment: "fig6", Benchmarks: []string{"eon"}, Cycles: int64(6_000_000 + s*16 + i), Warmup: 10_000}
				if _, err := e.SubmitBatch(breq); err != nil && err != ErrQueueFull && err != ErrShutdown {
					t.Errorf("SubmitBatch: %v", err)
				}
			}
		}(s)
	}

	// Shut down while admissions are in full flight. The short drain
	// deadline forces the cancellation path for running jobs too, so
	// pending covers both never-run and interrupted work.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	e.Shutdown(ctx)
	cancel()
	wg.Wait()

	// Every queued job left the queue, popped by a worker or by the
	// shutdown sweep.
	e.mu.Lock()
	q := e.queuedLocked()
	e.mu.Unlock()
	if q != 0 {
		t.Fatalf("%d jobs left in the run queue after shutdown, want 0", q)
	}

	// Replay exactness: each pending key is unique, and a restarted
	// engine runs exactly the pending set to completion.
	jnl2, recs2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending, _ := journal.Pending(recs2)
	seen := make(map[string]bool, len(pending))
	for _, r := range pending {
		if seen[r.Key] {
			t.Fatalf("key %s pending twice", r.Key)
		}
		seen[r.Key] = true
	}

	var runs2 atomic.Int64
	e2 := NewEngine(EngineConfig{
		Workers: 4, QueueDepth: 2 * len(pending),
		Journal: jnl2, Replay: recs2,
		runFunc: func(ctx context.Context, req Request) ([]byte, error) {
			runs2.Add(1)
			return stubResultJSON(req.Benchmark), nil
		},
	})
	defer shutdownEngine(t, e2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := e2.Metrics()
		if m.Ready && m.JobsQueued == 0 && m.JobsRunning == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay never drained: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := runs2.Load(); got != int64(len(pending)) {
		t.Fatalf("restart ran %d jobs for %d pending records", got, len(pending))
	}
	if m := e2.Metrics(); m.JobsCompleted != uint64(len(pending)) || m.JobsFailed != 0 {
		t.Fatalf("replay accounting: %d completed / %d failed, want %d / 0", m.JobsCompleted, m.JobsFailed, len(pending))
	}
}
