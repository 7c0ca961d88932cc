package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/rng"
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
		Shards:     8,
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
// aggregate capacity: with workers gated shut, concurrent submitters
// racing distinct keys get exactly QueueDepth admissions and every
// other submission is refused with ErrQueueFull — the sharded queues
// still enforce one aggregate bound, not one bound per shard.
func TestEngineStress429Accounting(t *testing.T) {
	release := make(chan struct{})
	e := NewEngine(EngineConfig{
		Workers:    4,
		Shards:     4,
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
		Shards:     4,
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
					// Churn single cells to race the batch's reservation.
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
					st := cell.snapshot()
					if st.State == JobFailed {
						t.Errorf("batch admitted with failed cell %s: %s", cell.Key, st.Error)
					}
				}
			}
		}(s)
	}
	wg.Wait()

	// The queue can hold at most QueueDepth reservations no matter how
	// the races interleaved — a torn batch would have leaked extras.
	if q := e.Metrics().JobsQueued; q > 8 {
		t.Errorf("JobsQueued = %d exceeds aggregate capacity 8", q)
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

// TestEngineStealCompletesSiblingBacklog pins the work-stealing path:
// every request is mined (by scanning Cycles values) to hash onto
// shard 0, so shards 1..3 never receive local work — yet all four
// workers end up running shard-0 jobs simultaneously, which is only
// possible if the idle siblings stole them, and the whole backlog
// completes while shard 0's own worker is still occupied.
func TestEngineStealCompletesSiblingBacklog(t *testing.T) {
	const nshards = 4
	block := make(chan struct{})
	e := NewEngine(EngineConfig{
		Workers:    nshards,
		Shards:     nshards,
		QueueDepth: 64,
		runFunc: func(ctx context.Context, req Request) ([]byte, error) {
			if req.Warmup == 1 { // plug jobs block until released
				select {
				case <-block:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return stubResultJSON(req.Benchmark), nil
		},
	})
	released := sync.OnceFunc(func() { close(block) })
	defer func() {
		released() // a failed test must still unblock the plugs
		shutdownEngine(t, e)
	}()

	// mine collects n requests with the given Warmup whose keys all
	// hash to shard 0.
	target := e.shards[0]
	next := int64(1)
	mine := func(n, warmup int) []Request {
		var out []Request
		for ; len(out) < n; next++ {
			r := Request{Benchmark: "eon", Cycles: next, Warmup: warmup}
			if e.shardFor(mustKey(t, r)) == target {
				out = append(out, r)
			}
		}
		return out
	}
	plugs := mine(nshards, 1)
	backlog := mine(12, 2)

	for _, p := range plugs {
		if _, err := e.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	// All four workers running jobs that are all homed on shard 0:
	// three of them must have stolen theirs.
	waitRunningN(t, e, nshards)
	if m := e.Metrics(); m.JobsStolen < nshards-1 {
		t.Errorf("JobsStolen = %d with %d shard-0 jobs running, want >= %d",
			m.JobsStolen, nshards, nshards-1)
	}

	keys := make([]string, len(backlog))
	for i, r := range backlog {
		j, err := e.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = j.Key
	}
	released()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, k := range keys {
		st, err := e.Wait(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone {
			t.Fatalf("backlog job %s settled %s: %s", k, st.State, st.Error)
		}
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

// TestJitterSeedDeterministic pins the per-worker jitter derivation:
// the same (seed, worker) pair always yields the same stream, and
// distinct workers get decorrelated streams.
func TestJitterSeedDeterministic(t *testing.T) {
	draw := func(seed uint64, worker, n int) []uint64 {
		src := rng.New(jitterSeed(seed, worker))
		out := make([]uint64, n)
		for i := range out {
			out[i] = src.Uint64()
		}
		return out
	}
	a, b := draw(1, 0, 8), draw(1, 0, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (seed, worker) diverged at draw %d", i)
		}
	}
	c := draw(1, 1, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("workers 0 and 1 share a jitter stream")
	}
}

// TestEngineStressBatchAdmissionVsShutdown lands Shutdown in the
// middle of a storm of batch and single-cell admissions, under -race
// in CI. The properties: the batch path's all-or-nothing CAS
// reservation never leaks capacity across a shutdown (the aggregate
// reservation counter returns to exactly zero), and the journal's
// pending set replays exactly — a restarted engine runs each
// interrupted job once and drains completely.
func TestEngineStressBatchAdmissionVsShutdown(t *testing.T) {
	dir := t.TempDir()
	jnl, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	e := NewEngine(EngineConfig{
		Workers: 4, Shards: 4, QueueDepth: 16,
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

	// The CAS reservation balanced: every admitted slot was released by
	// a pop, a shed, or the shutdown sweep; every rejected batch
	// released its whole claim.
	if q := e.queued.Load(); q != 0 {
		t.Fatalf("aggregate reservation counter = %d after shutdown, want 0", q)
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
		Workers: 4, Shards: 4, QueueDepth: 2 * len(pending),
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
