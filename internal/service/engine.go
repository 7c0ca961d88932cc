// The job engine: content-addressed job submission with single-flight
// deduplication, a bounded queue with explicit rejection, per-job
// timeout/cancellation, worker-pool execution, and queryable job
// states. The HTTP daemon (cmd/pipethermd) serves one Engine.
//
// One engine mutex guards the engine's state — the job map, the
// batches, one FIFO run queue that every worker pops from (dispatch.go),
// and the counters and health state behind /metrics — so single-flight,
// the 429 at QueueDepth, all-or-nothing batch admission and journal
// ordering are each decided under that one lock, and /metrics is one
// coherent reading.
//
// This file holds the engine's types, NewEngine, the job and batch
// queries, and Shutdown; admission.go, run.go, durability.go and
// health.go hold the rest, by concern.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
)

// JobState is the lifecycle of a job: queued → running →
// done|failed|quarantined.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
	// JobQuarantined marks a job key that panicked quarantineAfter
	// times: permanently failed, never re-enqueued, its poison marker
	// journaled across restarts.
	JobQuarantined JobState = "quarantined"
)

// ErrQueueFull is returned by Submit when the bounded queue has no room
// — the engine's explicit 429-style backpressure signal.
var ErrQueueFull = errors.New("service: job queue full")

// ErrShutdown is returned by Submit after Shutdown has begun, and used
// to fail jobs abandoned in the queue at shutdown.
var ErrShutdown = errors.New("service: engine shutting down")

// ErrDeadlineUnmeetable is the admission-control shed: the estimated
// queue wait (queued jobs × the EWMA of recent job latency ÷ workers)
// already exceeds the submission's deadline, so running it would waste
// a worker on a result nobody will be there to read. Served as 429 +
// Retry-After.
var ErrDeadlineUnmeetable = errors.New("service: deadline unmeetable at current load")

// ErrDeadlineExpired fails a job whose client deadline passed before it
// completed — in the queue, between retry attempts, or mid-attempt. The
// job is shed, never retried.
var ErrDeadlineExpired = errors.New("service: client deadline expired before the job completed")

// ErrAbandoned fails a job whose only synchronous waiter disconnected:
// the run context is cancelled with this cause and the worker stops
// computing a result nobody is waiting for.
var ErrAbandoned = errors.New("service: abandoned by client")

// ErrStuck is the watchdog's verdict on an attempt whose goroutine
// stopped making progress (no cancellation-poll ticks from the
// simulator's interval loop for a full watchdog period).
var ErrStuck = errors.New("service: attempt made no progress (watchdog)")

// errJobTimeout ends an attempt that ran out EngineConfig.JobTimeout:
// the transient early end, retried up to maxRetries.
var errJobTimeout = fmt.Errorf("service: job timeout: %w", context.DeadlineExceeded)

// Job is one submitted cell. All mutable fields are guarded by the
// engine mutex; callers read them through Status snapshots or after
// Wait.
type Job struct {
	Key string
	Req Request

	state      JobState
	cached     bool
	resultJSON []byte
	err        error
	attempts   int           // execution attempts this submission (1 = no retry)
	panics     int           // recovered panics for this job's key
	done       chan struct{} // closed on done/failed/quarantined

	// Overload-protection state (all guarded by Engine.mu).
	deadline   time.Time // zero = no deadline
	runCtx     context.Context
	runCancel  context.CancelCauseFunc
	waiters    int  // synchronous waiters currently blocked on this job
	pinned     bool // joined by a non-abandonable submitter (async, batch, replay)
	nonDurable bool // settled while the journal breaker was open
}

// closedDone is the shared pre-closed settle channel for jobs born
// settled (cache hits, restored quarantine markers): <-j.done behaves
// identically and the per-hit channel allocation disappears.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// JobStatus is an immutable snapshot of a job, in the wire shape the
// HTTP API serves. Result holds the exact cached bytes, so identical
// requests always see byte-identical result JSON.
type JobStatus struct {
	Key      string          `json:"key"`
	State    JobState        `json:"state"`
	Cached   bool            `json:"cached"`
	Req      Request         `json:"request"`
	Attempts int             `json:"attempts,omitempty"`
	Panics   int             `json:"panics,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	// NonJournaled marks a result that settled while the journal
	// breaker was open (durability "none"): correct, served, cached —
	// but its terminal record never reached the WAL.
	NonJournaled bool `json:"non_journaled,omitempty"`
}

// Batch is one submitted experiment matrix, aggregating cell jobs.
type Batch struct {
	Key   string
	Spec  experiments.Spec
	cells []*Job

	state JobState
	err   error
	done  chan struct{}
}

// BatchStatus is the wire snapshot of a batch.
type BatchStatus struct {
	Key        string          `json:"key"`
	State      JobState        `json:"state"`
	Experiment string          `json:"experiment"`
	Error      string          `json:"error,omitempty"`
	Cells      []BatchCellInfo `json:"cells"`
}

// BatchCellInfo names one cell of a batch and its current state.
type BatchCellInfo struct {
	Key       string   `json:"key"`
	Benchmark string   `json:"benchmark"`
	Variant   string   `json:"variant"`
	State     JobState `json:"state"`
	Cached    bool     `json:"cached"`
}

// EngineConfig sizes an engine.
type EngineConfig struct {
	// Workers is the simulation worker count; <= 0 means one per CPU
	// (runner.Resolve semantics).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run; <= 0 means
	// 64. Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// JobTimeout cancels a single cell run after this long; <= 0 means
	// no per-job timeout. A timed-out attempt counts as transient and
	// is retried up to maxRetries.
	JobTimeout time.Duration
	// Cache is the result cache; nil means a small memory-only cache.
	Cache *Cache

	// Journal, when non-nil, makes job transitions durable: submits are
	// WAL-logged before enqueue, terminal states on settle, and Replay
	// (the records journal.Open returned) is recovered at startup —
	// pending jobs are resubmitted, quarantine markers restored, and
	// the log compacted.
	Journal *journal.Journal
	Replay  []journal.Record

	// DefaultDeadline, when positive, gives every submission that does
	// not carry its own deadline one of now+DefaultDeadline — the
	// server-side guard against queues full of work nobody still wants.
	DefaultDeadline time.Duration
	// Watchdog force-fails an attempt whose goroutine stops making
	// progress for this long (progress = cancellation-poll ticks from
	// the simulator's sensor-interval loop). 0 means 10× JobTimeout
	// (disabled when JobTimeout is 0 too); negative disables it.
	Watchdog time.Duration

	// Inject is the chaos-testing seam (internal/faultinject); nil — the
	// production case — disarms every site. Its clock, when set, also
	// drives the breakers' cooldown timing and deadline arithmetic.
	Inject *faultinject.Injector

	// The fields below are in-package test seams; their zero values are
	// the production settings.
	//
	// maxRetries bounds retries of transient failures (timeouts,
	// injected I/O errors) per submission: 0 means 2 (three attempts
	// total), negative disables retries.
	maxRetries int
	// retryBase is the first backoff delay (doubled per retry, with
	// jitter, capped at 2s); <= 0 means 50ms.
	retryBase time.Duration
	// quarantineAfter is how many recovered panics a job key may
	// accumulate before it is quarantined; <= 0 means 3.
	quarantineAfter int
	// Breaker thresholds shared by the cache-disk and journal breakers:
	// breakerFailures consecutive failures (or over-latency successes,
	// past breakerLatency) trip a breaker open; after breakerCooldown
	// one probe is admitted. Zero values mean 3 / 2s / 2s.
	breakerFailures int
	breakerLatency  time.Duration
	breakerCooldown time.Duration
	// runFunc replaces the cell runner before workers and journal
	// replay start.
	runFunc func(ctx context.Context, req Request) ([]byte, error)
}

// Engine runs jobs. Create with NewEngine, stop with Shutdown.
type Engine struct {
	cfg EngineConfig // normalized by NewEngine: every default applied

	// mu is the one lock over the engine's state: the job map, the
	// per-key panic counters, the run queue (push at the tail, pop at
	// queue[qhead]; dispatch.go), the batches, every Job's mutable
	// fields, the counters and telemetry folds behind /metrics, the
	// retry-jitter rng, the latency EWMA, the last-rejection stamp and
	// the health state machine. Idle workers wait on work (signalled on
	// each enqueue) and a journal replay blocked by a full queue waits
	// on space (signalled on each pop); both are condition variables of
	// mu.
	mu          sync.Mutex
	work        sync.Cond
	space       sync.Cond
	jobs        map[string]*Job
	panicCounts map[string]int // recovered panics per job key
	queue       []*Job
	qhead       int
	batches     map[string]*Batch
	deduped     uint64 // single-flight and batch joins
	running     int    // jobs a worker has started and not yet settled
	stats       engineStats
	jitter      *rng.Source // retry-backoff jitter

	// Overload protection (see DESIGN.md, "Overload and degraded
	// modes"), under mu: latEWMA is the exponentially weighted moving
	// average of attempt latency in seconds; lastReject is the most
	// recent shed or queue-full rejection, the overload-hysteresis
	// signal; the health fields are the state machine behind /readyz.
	latEWMA       float64
	lastReject    time.Time
	healthCur     HealthState
	healthSince   time.Time
	healthEntered map[HealthState]uint64

	// stopCh closes when Shutdown begins; retry backoffs and the
	// maintenance loop wake on it.
	stopCh chan struct{}

	closed   atomic.Bool // Shutdown has begun
	draining atomic.Bool // readiness off ahead of shutdown (BeginDrain)
	replayed atomic.Bool // journal replay finished (true when no journal)
	// baseCtx parents every job's run context; Shutdown cancels it with
	// ErrShutdown at the drain deadline.
	baseCtx context.Context
	cancel  context.CancelCauseFunc
	wg      sync.WaitGroup

	start time.Time
	// now is the clock seam: the injector's fake clock in tests,
	// time.Now in production.
	now            func() time.Time
	cbrk           *Breaker // cache-disk breaker
	jbrk           *Breaker // journal breaker
	journalErrs    atomic.Uint64
	journalSkipped atomic.Uint64
	rejournalMu    sync.Mutex // one re-journal compaction at a time

	// runCell executes one cell and returns its canonical result JSON.
	// Tests replace it with a controllable stub; production uses runCell.
	run func(ctx context.Context, req Request) ([]byte, error)
}

// engineStats are the run-side counters and telemetry folds behind
// /metrics, guarded by Engine.mu.
type engineStats struct {
	completed     uint64
	failed        uint64
	retries       uint64
	panics        uint64
	quarantined   uint64
	shedExpired   uint64 // client deadline passed before the job completed
	shedAdmission uint64 // deadline unmeetable at admission
	abandoned     uint64 // sole synchronous waiter disconnected
	watchdog      uint64 // attempts force-failed for lack of progress

	util    UtilizationMetrics // sums over the cells this engine simulated
	mc      MulticoreMetrics   // sums over its multicore runs, peaks as maxima
	mcCoreN []uint64           // its multicore runs per core
}

// NewEngine starts an engine with cfg.Workers simulation workers. With
// a journal configured, replayed pending jobs are resubmitted in the
// background; Ready reports false until that finishes.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Cache == nil {
		cfg.Cache, _ = NewCache(128, "")
	}
	cfg.Cache.SetInjector(cfg.Inject)
	switch {
	case cfg.maxRetries == 0:
		cfg.maxRetries = 2
	case cfg.maxRetries < 0:
		cfg.maxRetries = 0
	}
	if cfg.retryBase <= 0 {
		cfg.retryBase = 50 * time.Millisecond
	}
	if cfg.quarantineAfter <= 0 {
		cfg.quarantineAfter = 3
	}
	switch {
	case cfg.Watchdog == 0 && cfg.JobTimeout > 0:
		cfg.Watchdog = 10 * cfg.JobTimeout
	case cfg.Watchdog < 0:
		cfg.Watchdog = 0
	}
	cfg.Workers = runner.Resolve(cfg.Workers, 0)
	replay := cfg.Replay
	cfg.Replay = nil // recovered once below; not retained
	ctx, cancel := context.WithCancelCause(context.Background())
	e := &Engine{
		cfg:           cfg,
		stopCh:        make(chan struct{}),
		jobs:          make(map[string]*Job),
		panicCounts:   make(map[string]int),
		batches:       make(map[string]*Batch),
		jitter:        rng.New(defaultJitterSeed),
		baseCtx:       ctx,
		cancel:        cancel,
		start:         time.Now(),
		run:           runCell,
		now:           cfg.Inject.Now, // nil-receiver safe: falls back to time.Now
		healthCur:     HealthHealthy,
		healthEntered: map[HealthState]uint64{HealthHealthy: 1},
	}
	e.work.L, e.space.L = &e.mu, &e.mu
	e.healthSince = e.now()
	e.cbrk = newBreaker("cache", cfg.breakerFailures, cfg.breakerLatency, cfg.breakerCooldown, e.now)
	cfg.Cache.SetBreaker(e.cbrk)
	if cfg.Journal != nil {
		e.jbrk = newBreaker("journal", cfg.breakerFailures, cfg.breakerLatency, cfg.breakerCooldown, e.now)
	}
	if cfg.runFunc != nil {
		e.run = cfg.runFunc
	}
	e.replayed.Store(true)
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	e.recoverJournal(replay)
	if cfg.Journal != nil {
		// The maintenance loop probes an open journal breaker so
		// durability recovers on its own, without waiting for traffic.
		e.wg.Add(1)
		go e.maintain()
	}
	return e
}

// Job returns a snapshot of the job for key. Unknown in-memory keys
// fall back to the cache (content-addressed, so a daemon restarted over
// a warm disk cache still answers for completed jobs).
func (e *Engine) Job(key string) (JobStatus, bool) {
	e.mu.Lock()
	if j, ok := e.jobs[key]; ok {
		st := statusLocked(j)
		e.mu.Unlock()
		return st, true
	}
	e.mu.Unlock()
	if !isKey(key) {
		return JobStatus{}, false
	}
	if data, ok := e.cfg.Cache.Get(key); ok {
		return JobStatus{Key: key, State: JobDone, Cached: true, Result: data}, true
	}
	return JobStatus{}, false
}

// snapshot returns the job's status under the engine lock.
func (e *Engine) snapshot(j *Job) JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return statusLocked(j)
}

// statusLocked snapshots a job; the caller holds e.mu.
func statusLocked(j *Job) JobStatus {
	st := JobStatus{Key: j.Key, State: j.state, Cached: j.cached, Req: j.Req,
		Attempts: j.attempts, Panics: j.panics, NonJournaled: j.nonDurable}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == JobDone {
		st.Result = j.resultJSON
	}
	return st
}

// BatchJob returns a snapshot of the batch for key.
func (e *Engine) BatchJob(key string) (BatchStatus, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, ok := e.batches[key]
	if !ok {
		return BatchStatus{}, false
	}
	return batchStatus(b), true
}

// batchStatus snapshots a batch and its cells; the caller holds e.mu.
func batchStatus(b *Batch) BatchStatus {
	st := BatchStatus{Key: b.Key, State: b.state, Experiment: b.Spec.ID}
	if b.err != nil {
		st.Error = b.err.Error()
	}
	st.Cells = make([]BatchCellInfo, len(b.cells))
	for i, j := range b.cells {
		st.Cells[i] = BatchCellInfo{
			Key: j.Key, Benchmark: j.Req.Benchmark,
			Variant: variantName(b.Spec, i), State: j.state, Cached: j.cached,
		}
	}
	return st
}

func variantName(spec experiments.Spec, cellIndex int) string {
	if len(spec.Variants) == 0 {
		return ""
	}
	return spec.Variants[cellIndex%len(spec.Variants)].Name
}

// Wait blocks until the job for key settles or ctx is done, and returns
// the settled snapshot.
func (e *Engine) Wait(ctx context.Context, key string) (JobStatus, error) {
	e.mu.Lock()
	j, ok := e.jobs[key]
	e.mu.Unlock()
	if !ok {
		if st, ok := e.Job(key); ok { // cache fallback
			return st, nil
		}
		return JobStatus{}, fmt.Errorf("service: unknown job %q", key)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	return e.snapshot(j), nil
}

// WaitBatch blocks until the batch settles or ctx is done.
func (e *Engine) WaitBatch(ctx context.Context, key string) (BatchStatus, error) {
	e.mu.Lock()
	b, ok := e.batches[key]
	e.mu.Unlock()
	if !ok {
		return BatchStatus{}, fmt.Errorf("service: unknown batch %q", key)
	}
	select {
	case <-b.done:
	case <-ctx.Done():
		return BatchStatus{}, ctx.Err()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return batchStatus(b), nil
}

// BatchMatrix assembles a settled done batch into an experiments.Matrix
// (cells in serial iteration order, results decoded from the cached
// JSON), ready for the paper-style report renderers.
func (e *Engine) BatchMatrix(key string) (*experiments.Matrix, error) {
	e.mu.Lock()
	b, ok := e.batches[key]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("service: unknown batch %q", key)
	}
	if b.state != JobDone {
		e.mu.Unlock()
		return nil, fmt.Errorf("service: batch %q is %s", key, b.state)
	}
	spec := b.Spec
	cells := make([]*Job, len(b.cells))
	copy(cells, b.cells)
	e.mu.Unlock()

	m := &experiments.Matrix{Spec: spec, Cells: make([]experiments.Cell, len(cells))}
	for i, j := range cells {
		var r sim.Result
		// b.state == JobDone was set after every cell settled, so the
		// result bytes are ordered before this read.
		if err := json.Unmarshal(j.resultJSON, &r); err != nil {
			return nil, fmt.Errorf("service: batch %q cell %d: %w", key, i, err)
		}
		m.Cells[i] = experiments.Cell{Benchmark: j.Req.Benchmark, Variant: variantName(spec, i), R: &r}
	}
	return m, nil
}

// BeginDrain flips readiness off ahead of Shutdown, so a load balancer
// polling /readyz stops routing before the listener closes and the
// queue starts refusing work.
func (e *Engine) BeginDrain() { e.draining.Store(true) }

// Shutdown stops accepting submissions, lets running jobs drain, and
// fails jobs still queued. If ctx expires before the drain completes,
// in-flight runs are cancelled (they stop at their next sensor
// interval) and Shutdown returns ctx's error; otherwise nil.
//
// Journal semantics: every state reached during the drain is persisted
// before Shutdown returns — jobs that complete write their done
// records, while jobs abandoned in the queue or cancelled by the
// deadline write no terminal record at all, which is what makes
// restart replay accurate: exactly the interrupted work is resubmitted.
func (e *Engine) Shutdown(ctx context.Context) error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	e.draining.Store(true)
	// Fence: a submitter past the closed check holds the engine lock
	// until its job is enqueued, so after this critical section every
	// in-flight enqueue is in the queue and every later submit fails
	// with ErrShutdown. Its broadcasts wake the idle workers, which pop
	// what is queued (each job fails fast with ErrShutdown) and exit,
	// and a journal replay waiting for queue space, which stops.
	e.mu.Lock()
	e.work.Broadcast()
	e.space.Broadcast()
	e.mu.Unlock()
	close(e.stopCh)

	// At ctx's deadline, cancel the base context: in-flight runs end
	// with ErrShutdown at their next sensor interval.
	stop := context.AfterFunc(ctx, func() { e.cancel(ErrShutdown) })
	e.wg.Wait()
	var err error
	if !stop() {
		err = ctx.Err()
	}
	e.cancel(ErrShutdown)
	// Workers are parked, so every journal append has happened; flush
	// them to stable storage before reporting the engine stopped.
	if e.cfg.Journal != nil {
		if cerr := e.cfg.Journal.Close(); cerr != nil {
			e.journalErrs.Add(1)
		}
	}
	return err
}
