// The job engine: content-addressed job submission with single-flight
// deduplication, a bounded queue with explicit rejection, per-job
// timeout/cancellation, worker-pool execution, and queryable job
// states. One Engine is shared by the HTTP daemon (cmd/pipethermd) and
// the in-process matrix path (cmd/experiments -cache-dir).
//
// Dispatch is sharded (shard.go): jobs hash by key onto per-shard
// queues and job-map slices, each worker drains its own shard and
// steals from the busiest sibling when idle, and aggregate queue
// capacity is one atomic reservation counter — so a burst of
// submissions on a many-core host never serializes on a global lock,
// while the observable semantics (single-flight, 429 at QueueDepth,
// all-or-nothing batch admission, journal ordering) are unchanged.
//
// Fault tolerance: every job attempt runs under recover(), so a
// panicking cell fails only that job (the stack lands in
// JobStatus.Error) while the workers keep serving; a key that keeps
// panicking is quarantined — failed permanently, never retried — after
// QuarantineAfter attempts; transient failures (job timeout, injected
// I/O errors) retry with exponential backoff and per-worker-rng jitter
// up to MaxRetries; and with a journal attached, submit/done/failed
// transitions are WAL-logged so queued and interrupted jobs survive a
// crash and are replayed on the next start (see DESIGN.md, "Failure
// model and recovery").
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/multicore"
	"repro/internal/pipeline"
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
	// JobQuarantined marks a job key that panicked QuarantineAfter
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
// queue wait (queue depth × the EWMA of recent job latency) already
// exceeds the submission's deadline, so running it would waste a worker
// on a result nobody will be there to read. Served as 429 + Retry-After.
var ErrDeadlineUnmeetable = errors.New("service: deadline unmeetable at current load")

// ErrDeadlineExpired fails a job whose client deadline passed while it
// waited in the queue (or between retry attempts) — the worker sheds it
// instead of running it.
var ErrDeadlineExpired = errors.New("service: deadline expired before the job ran")

// ErrAbandoned fails a job whose only synchronous waiter disconnected:
// the run context is cancelled with this cause and the worker stops
// computing a result nobody is waiting for.
var ErrAbandoned = errors.New("service: abandoned by client")

// ErrStuck is the watchdog's verdict on an attempt whose goroutine
// stopped making progress (no cancellation-poll ticks from the
// simulator's interval loop for a full watchdog period).
var ErrStuck = errors.New("service: attempt made no progress (watchdog)")

// Job is one submitted cell. All mutable fields are guarded by the
// home shard's mutex; callers read them through Status snapshots or
// after Wait.
type Job struct {
	Key string
	Req Request

	home       *shard
	state      JobState
	cached     bool
	resultJSON []byte
	err        error
	attempts   int           // execution attempts this submission (1 = no retry)
	panics     int           // recovered panics for this job's key
	done       chan struct{} // closed on done/failed/quarantined

	// Overload-protection state (all guarded by home.mu).
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
	// Shards is the dispatcher shard count; <= 0 means one per worker —
	// the production shape, where every worker owns a shard. Exposed so
	// tests can pin hashing behavior.
	Shards int
	// QueueDepth bounds the number of jobs waiting to run, in aggregate
	// across all shards; <= 0 means 64. Submissions beyond it fail with
	// ErrQueueFull.
	QueueDepth int
	// JobTimeout cancels a single cell run after this long; <= 0 means
	// no per-job timeout. A timed-out attempt counts as transient and
	// is retried up to MaxRetries.
	JobTimeout time.Duration
	// Cache is the result cache; nil means a small memory-only cache.
	Cache *Cache

	// MaxRetries bounds retries of transient failures (timeouts,
	// injected I/O errors) per submission: 0 means the default of 2
	// (three attempts total), negative disables retries.
	MaxRetries int
	// RetryBase is the first backoff delay (doubled per retry, with
	// jitter); <= 0 means 50ms.
	RetryBase time.Duration
	// RetryMax caps the backoff delay; <= 0 means 2s.
	RetryMax time.Duration
	// QuarantineAfter is how many recovered panics a job key may
	// accumulate before it is quarantined; <= 0 means 3.
	QuarantineAfter int
	// JitterSeed seeds the per-worker retry-jitter rngs (jitterSeed
	// derivation in shard.go); 0 means defaultJitterSeed.
	JitterSeed uint64

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

	// Breaker thresholds shared by the cache-disk and journal breakers:
	// BreakerFailures consecutive failures (or over-latency successes,
	// past BreakerLatency) trip a breaker open; after BreakerCooldown
	// one probe is admitted. Zero values mean 3 / 2s / 2s.
	BreakerFailures int
	BreakerLatency  time.Duration
	BreakerCooldown time.Duration

	// OverloadHold is how long after a shed/rejection the engine keeps
	// reporting the overloaded health state (hysteresis so /readyz does
	// not flap on a single burst); <= 0 means 2s.
	OverloadHold time.Duration

	// Inject is the chaos-testing seam (internal/faultinject); nil — the
	// production case — disarms every site. Its clock, when set, also
	// drives the breakers' cooldown timing and deadline arithmetic.
	Inject *faultinject.Injector

	// runFunc replaces the cell runner before workers and journal
	// replay start. In-package tests only.
	runFunc func(ctx context.Context, req Request) ([]byte, error)
}

// Metrics is the engine's counter snapshot, served at /metrics.
type Metrics struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	JobsQueued      int     `json:"jobs_queued"`
	JobsRunning     int     `json:"jobs_running"`
	JobsCompleted   uint64  `json:"jobs_completed"`
	JobsFailed      uint64  `json:"jobs_failed"`
	JobsDeduped     uint64  `json:"jobs_deduped"`
	JobsRetried     uint64  `json:"jobs_retried"`
	JobPanics       uint64  `json:"job_panics"`
	JobsQuarantined uint64  `json:"jobs_quarantined"`
	JobsStolen      uint64  `json:"jobs_stolen"`
	JournalErrors   uint64  `json:"journal_errors"`
	Ready           bool    `json:"ready"`

	// Overload-protection counters and gauges (see DESIGN.md,
	// "Overload and degraded modes").
	JobsShedExpired     uint64          `json:"jobs_shed_expired"`
	JobsShedAdmission   uint64          `json:"jobs_shed_admission"`
	JobsClientAbandoned uint64          `json:"jobs_client_abandoned"`
	JobsWatchdogFired   uint64          `json:"jobs_watchdog_fired"`
	JournalSkipped      uint64          `json:"journal_skipped"`
	CacheDegraded       int             `json:"cache_degraded"`
	Durability          string          `json:"durability"` // journaled | none | off
	QueueWaitEWMAMS     float64         `json:"queue_wait_ewma_ms"`
	CacheBreaker        BreakerSnapshot `json:"cache_breaker"`
	JournalBreaker      BreakerSnapshot `json:"journal_breaker"`
	Health              HealthMetrics   `json:"health"`

	CacheHits      uint64         `json:"cache_hits"`
	CacheMisses    uint64         `json:"cache_misses"`
	CacheEntries   int            `json:"cache_entries"`
	CellsPerSecond float64        `json:"cells_per_second"`
	Cache          CacheStats     `json:"cache"`
	Shards         []ShardMetrics `json:"shards"`

	// Runtime is the Go runtime health section: memory, GC, and
	// goroutine gauges for the serving process.
	Runtime RuntimeMetrics `json:"runtime"`
	// Utilization averages the per-cell pipeline utilization telemetry
	// over every cell this process simulated (cache hits are excluded:
	// their telemetry was accounted when they were first computed,
	// possibly by an earlier process sharing the cache directory).
	Utilization UtilizationMetrics `json:"utilization"`
	// Multicore aggregates the multi-core scheduling runs this process
	// computed, with the same cache-hit exclusion as Utilization.
	Multicore MulticoreMetrics `json:"multicore"`
}

// ShardMetrics is one dispatcher shard's gauge slice of /metrics.
type ShardMetrics struct {
	QueueDepth int `json:"queue_depth"`
}

// HealthMetrics is the health-state-machine section of /metrics: the
// current state, how long it has held, and how many times each state
// has been entered since the process started.
type HealthMetrics struct {
	State        string            `json:"state"`
	SinceSeconds float64           `json:"since_seconds"`
	Entered      map[string]uint64 `json:"entered"`
}

// RuntimeMetrics is the Go runtime section of /metrics.
type RuntimeMetrics struct {
	Goroutines      int     `json:"goroutines"`
	NumCPU          int     `json:"num_cpu"`
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes    uint64  `json:"heap_sys_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	GCCycles        uint32  `json:"gc_cycles"`
	GCPauseTotalMS  float64 `json:"gc_pause_total_ms"`
}

// UtilizationMetrics is the mean of sim results' Utilization over the
// cells this engine simulated. Share vectors are element-wise means, so
// they still sum to ~1 when every cell had activity.
type UtilizationMetrics struct {
	Cells         uint64     `json:"cells"`
	IntQHalfOcc   [2]float64 `json:"intq_half_occupancy"`
	FPQHalfOcc    [2]float64 `json:"fpq_half_occupancy"`
	ALUGrantShare []float64  `json:"alu_grant_share"`
	RFReadShare   []float64  `json:"rf_read_share"`
}

// MulticoreMetrics aggregates the multi-core scheduling runs this
// engine computed. Per-core vectors are indexed by core id and sized to
// the widest run seen: utilization and average temperature are means
// over the runs that had that core, peak temperature is the running
// maximum.
type MulticoreMetrics struct {
	Runs            uint64    `json:"runs"`
	CoolingStalls   uint64    `json:"cooling_stalls"`
	Migrations      uint64    `json:"migrations"`
	CoreUtilization []float64 `json:"core_utilization,omitempty"`
	CoreAvgTempK    []float64 `json:"core_avg_temp_k,omitempty"`
	CorePeakTempK   []float64 `json:"core_peak_temp_k,omitempty"`
}

// Engine runs jobs. Create with NewEngine, stop with Shutdown.
type Engine struct {
	cache      *Cache
	jobTimeout time.Duration

	// Fault-tolerance knobs (see EngineConfig).
	maxRetries      int
	retryBase       time.Duration
	retryMax        time.Duration
	quarantineAfter int
	journal         *journal.Journal
	inj             *faultinject.Injector

	// The sharded dispatcher (shard.go). depth is the aggregate queue
	// capacity; queued counts reserved slots across all shards; wakeCh
	// carries work-available tokens to idle workers; spaceCh nudges the
	// blocking journal-replay submitter when capacity frees.
	shards  []*shard
	workers []*workerState
	depth   int
	queued  atomic.Int64
	wakeCh  chan struct{}
	spaceCh chan struct{}
	stopCh  chan struct{}

	// Batches are rare and aggregate many shards, so they keep a
	// conventional mutex; batch admission locks batchMu, then every
	// shard in index order (the one place the engine still has a global
	// critical section — by design, it is what makes admission atomic).
	batchMu      sync.Mutex
	batches      map[string]*Batch
	batchDeduped uint64

	closed   atomic.Bool
	closing  atomic.Bool
	draining atomic.Bool // readiness off ahead of shutdown (BeginDrain)
	replayed atomic.Bool // journal replay finished (true when no journal)
	baseCtx  context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	start       time.Time
	running     atomic.Int64
	journalErrs atomic.Uint64

	// Overload protection (see DESIGN.md, "Overload and degraded
	// modes"). now is the clock seam (the injector's fake clock in
	// tests, time.Now in production); latEWMA holds float64 bits of the
	// exponentially weighted moving average of attempt latency in
	// seconds; lastReject is the UnixNano of the most recent
	// shed/queue-full rejection, the overload-hysteresis signal.
	now             func() time.Time
	defaultDeadline time.Duration
	watchdog        time.Duration
	overloadHold    time.Duration
	cbrk            *Breaker // cache-disk breaker
	jbrk            *Breaker // journal breaker
	latEWMA         atomic.Uint64
	lastReject      atomic.Int64
	shedAdmission   atomic.Uint64
	journalSkipped  atomic.Uint64
	rejournalMu     sync.Mutex // one re-journal compaction at a time

	healthMu      sync.Mutex
	healthCur     HealthState
	healthSince   time.Time
	healthEntered map[HealthState]uint64

	// runCell executes one cell and returns its canonical result JSON.
	// Tests replace it with a controllable stub; production uses runCell.
	run func(ctx context.Context, req Request) ([]byte, error)
}

// NewEngine starts an engine with cfg.Workers simulation workers. With
// a journal configured, replayed pending jobs are resubmitted in the
// background; Ready reports false until that finishes.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	cache := cfg.Cache
	if cache == nil {
		cache, _ = NewCache(128, "")
	}
	cache.SetInjector(cfg.Inject)
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = 2
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = defaultJitterSeed
	}
	switch {
	case cfg.Watchdog == 0 && cfg.JobTimeout > 0:
		cfg.Watchdog = 10 * cfg.JobTimeout
	case cfg.Watchdog < 0:
		cfg.Watchdog = 0
	}
	if cfg.OverloadHold <= 0 {
		cfg.OverloadHold = 2 * time.Second
	}
	workers := runner.Resolve(cfg.Workers, 0)
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = workers
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cache:           cache,
		jobTimeout:      cfg.JobTimeout,
		maxRetries:      cfg.MaxRetries,
		retryBase:       cfg.RetryBase,
		retryMax:        cfg.RetryMax,
		quarantineAfter: cfg.QuarantineAfter,
		journal:         cfg.Journal,
		inj:             cfg.Inject,
		depth:           cfg.QueueDepth,
		wakeCh:          make(chan struct{}, cfg.QueueDepth),
		spaceCh:         make(chan struct{}, 1),
		stopCh:          make(chan struct{}),
		batches:         make(map[string]*Batch),
		baseCtx:         ctx,
		cancel:          cancel,
		start:           time.Now(),
		run:             runCell,
		now:             cfg.Inject.Now, // nil-receiver safe: falls back to time.Now
		defaultDeadline: cfg.DefaultDeadline,
		watchdog:        cfg.Watchdog,
		overloadHold:    cfg.OverloadHold,
		healthCur:       HealthHealthy,
		healthEntered:   map[HealthState]uint64{HealthHealthy: 1},
	}
	e.healthSince = e.now()
	e.cbrk = newBreaker("cache", cfg.BreakerFailures, cfg.BreakerLatency, cfg.BreakerCooldown, e.now)
	cache.SetBreaker(e.cbrk)
	if cfg.Journal != nil {
		e.jbrk = newBreaker("journal", cfg.BreakerFailures, cfg.BreakerLatency, cfg.BreakerCooldown, e.now)
	}
	if cfg.runFunc != nil {
		e.run = cfg.runFunc
	}
	e.shards = make([]*shard, nshards)
	for i := range e.shards {
		e.shards[i] = &shard{
			jobs:        make(map[string]*Job),
			panicCounts: make(map[string]int),
		}
	}
	e.workers = make([]*workerState, workers)
	for i := range e.workers {
		e.workers[i] = &workerState{rng: rng.New(jitterSeed(cfg.JitterSeed, i))}
	}
	e.replayed.Store(true)
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	e.recoverJournal(cfg.Replay)
	if e.journal != nil {
		// The maintenance loop probes an open journal breaker so
		// durability recovers on its own, without waiting for traffic.
		e.wg.Add(1)
		go e.maintain()
	}
	return e
}

// recoverJournal restores journaled state: quarantine markers become
// quarantined jobs, the log is compacted to the live set, and pending
// submits are resubmitted in the background (readiness is withheld
// until they are all enqueued; their results then arrive through the
// normal worker/cache path).
func (e *Engine) recoverJournal(recs []journal.Record) {
	if e.journal == nil {
		return
	}
	pending, quarantined := journal.Pending(recs)
	for _, rec := range quarantined {
		var req Request
		json.Unmarshal(rec.Req, &req) // best-effort: old markers may lack the request
		sh := e.shardFor(rec.Key)
		j := &Job{Key: rec.Key, Req: req, home: sh, state: JobQuarantined,
			err: errors.New(rec.Err), panics: e.quarantineAfter, done: closedDone}
		sh.mu.Lock()
		sh.jobs[rec.Key] = j
		sh.panicCounts[rec.Key] = e.quarantineAfter
		sh.mu.Unlock()
	}
	compact := append(append([]journal.Record{}, quarantined...), pending...)
	if err := e.journal.Rewrite(compact); err != nil {
		// Startup compaction failing (disk full) degrades durability, it
		// never blocks startup: the breaker sees the failure and the
		// maintenance loop retries once the disk recovers.
		e.journalErrs.Add(1)
		e.jbrk.Record(0, err)
	}
	if len(pending) > 0 {
		e.replayed.Store(false)
		go e.replayPending(pending)
	}
}

// replayPending resubmits journaled pending jobs. A full queue blocks
// on the capacity-freed signal rather than polling, so recovered work
// admits the moment a slot opens and /readyz flips as soon as the last
// replay lands.
func (e *Engine) replayPending(pending []journal.Record) {
	defer e.replayed.Store(true)
	for _, rec := range pending {
		var req Request
		if err := json.Unmarshal(rec.Req, &req); err != nil {
			continue // unreadable request: nothing to replay
		}
		for {
			j, err := e.Submit(req)
			if err == nil {
				// Replay-from-cache: the run completed before the crash
				// but its done record was lost; settle the journal now.
				st := j.snapshot()
				if st.State == JobDone && st.Cached {
					e.journalAppend(journal.Record{Op: journal.OpDone, Key: j.Key})
				}
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				break // invalid under current config, or engine shut down
			}
			select {
			case <-e.spaceCh:
			case <-e.baseCtx.Done():
				return
			}
		}
	}
}

// journalAppend WAL-logs one transition. Journal failures degrade
// durability, not availability: they are counted, never fatal. The
// journal breaker turns a run of failures into durability=none mode —
// appends are skipped (counted in journal_skipped) instead of paying a
// failing, possibly slow syscall per transition — and the breaker
// closing again triggers a re-journal of all outstanding state.
// Returns whether the record actually reached the WAL.
func (e *Engine) journalAppend(r journal.Record) bool {
	if e.journal == nil {
		return false
	}
	if !e.jbrk.Allow() {
		e.journalSkipped.Add(1)
		return false
	}
	start := e.now()
	err := e.journal.Append(r)
	if err != nil {
		e.journalErrs.Add(1)
	}
	if e.jbrk.Record(e.now().Sub(start), err) {
		go e.rejournal()
	}
	return err == nil
}

// maintain is the engine's background recovery loop: while the journal
// breaker is open it periodically probes the disk with a no-op note
// append, and on success re-journals outstanding state — so a daemon
// whose disk comes back recovers journaled durability on its own, with
// no traffic required.
func (e *Engine) maintain() {
	defer e.wg.Done()
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-t.C:
			if e.jbrk.State() == BreakerClosed || !e.jbrk.Allow() {
				continue
			}
			start := e.now()
			err := e.journal.Append(journal.Record{Op: journal.OpNote, Key: "breaker-probe"})
			if err != nil {
				e.journalErrs.Add(1)
			}
			if e.jbrk.Record(e.now().Sub(start), err) {
				e.rejournal()
			}
		}
	}
}

// rejournal compacts the WAL back to the live job set — the recovery
// step after a stretch of durability=none, when the on-disk log is
// missing every transition that happened while the breaker was open.
// It rewrites pending submits and quarantine markers from the in-memory
// truth; settled jobs simply vanish from the log, exactly as compaction
// would have left them. Holding every shard lock across the rewrite
// keeps concurrent appends from landing in the pre-compaction file and
// being lost by the rename.
func (e *Engine) rejournal() {
	if e.journal == nil || !e.rejournalMu.TryLock() {
		return
	}
	defer e.rejournalMu.Unlock()
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	var recs []journal.Record
	for _, sh := range e.shards {
		for key, j := range sh.jobs {
			switch j.state {
			case JobQueued, JobRunning:
				rec := journal.Record{Op: journal.OpSubmit, Key: key}
				if c, err := j.Req.Canonical(); err == nil {
					rec.Req = c
				}
				recs = append(recs, rec)
			case JobQuarantined:
				rec := journal.Record{Op: journal.OpQuarantined, Key: key}
				if j.err != nil {
					rec.Err = j.err.Error()
				}
				if c, err := j.Req.Canonical(); err == nil {
					rec.Req = c
				}
				recs = append(recs, rec)
			}
		}
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].Key < recs[k].Key })
	start := e.now()
	err := e.journal.Rewrite(recs)
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}
	if err != nil {
		e.journalErrs.Add(1)
	}
	e.jbrk.Record(e.now().Sub(start), err)
}

func (e *Engine) runJob(id int, j *Job) {
	h := j.home
	h.mu.Lock()
	j.state = JobRunning
	h.mu.Unlock()
	e.running.Add(1)
	defer e.running.Add(-1)

	w := e.workers[id]
	for attempt := 0; ; attempt++ {
		if e.jobExpired(j) {
			w.statsMu.Lock()
			w.stats.shedExpired++
			w.statsMu.Unlock()
			e.finish(id, j, nil, ErrDeadlineExpired)
			return
		}
		h.mu.Lock()
		j.attempts = attempt + 1
		h.mu.Unlock()
		astart := e.now()
		data, err := e.attempt(j)
		e.noteLatency(e.now().Sub(astart))
		if err == nil {
			e.cache.Put(j.Key, data)
			e.finish(id, j, data, nil)
			return
		}
		if e.jobAbandoned(j) {
			w.statsMu.Lock()
			w.stats.abandoned++
			w.statsMu.Unlock()
			e.finish(id, j, nil, ErrAbandoned)
			return
		}
		if errors.Is(err, ErrStuck) {
			w.statsMu.Lock()
			w.stats.watchdog++
			w.statsMu.Unlock()
			e.finish(id, j, nil, fmt.Errorf("%w after %s without progress", ErrStuck, e.watchdog))
			return
		}
		var pe *panicError
		if errors.As(err, &pe) {
			// A panic fails only this job; the worker survives. The
			// per-key counter quarantines deterministic crashers instead
			// of retrying them forever.
			w.statsMu.Lock()
			w.stats.panics++
			w.statsMu.Unlock()
			h.mu.Lock()
			j.panics++
			h.panicCounts[j.Key]++
			n := h.panicCounts[j.Key]
			h.mu.Unlock()
			if n >= e.quarantineAfter {
				e.quarantine(id, j, err)
				return
			}
		} else if isShutdownErr(err) || !transient(err) {
			e.finish(id, j, nil, err)
			return
		} else if attempt >= e.maxRetries {
			e.finish(id, j, nil, fmt.Errorf("after %d attempts: %w", attempt+1, err))
			return
		}
		if e.closing.Load() || !e.backoff(id, attempt) {
			e.finish(id, j, nil, err)
			return
		}
		w.statsMu.Lock()
		w.stats.retries++
		w.statsMu.Unlock()
	}
}

// attempt executes the job once with panic isolation: a panicking run
// (simulator bug, injected fault) is converted into a *panicError
// carrying the goroutine stack instead of killing the worker. The
// attempt context stacks, innermost first: job timeout, client
// deadline, the job's cancellable run context (client abandonment),
// and the engine's base context (shutdown).
func (e *Engine) attempt(j *Job) (data []byte, err error) {
	h := j.home
	h.mu.Lock()
	ctx := j.runCtx
	deadline := j.deadline
	h.mu.Unlock()
	if ctx == nil {
		ctx = e.baseCtx
	}
	var cancel context.CancelFunc
	if !deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	if e.jobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, e.jobTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			data, err = nil, &panicError{val: r, stack: debug.Stack()}
		}
	}()
	if ferr := e.inj.Fire(faultinject.SiteJobRun); ferr != nil {
		return nil, ferr
	}
	if e.watchdog > 0 {
		return e.runWatched(ctx, j)
	}
	return e.run(ctx, j.Req)
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
// full watchdog period, the attempt is force-failed with ErrStuck and
// the wedged goroutine is abandoned (its eventual send lands in a
// buffered channel). A run that merely takes long but keeps polling is
// never shot — the watchdog watches progress, not duration.
func (e *Engine) runWatched(ctx context.Context, j *Job) ([]byte, error) {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var ticks atomic.Uint64
	type outcome struct {
		data []byte
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{nil, &panicError{val: r, stack: debug.Stack()}}
			}
		}()
		data, err := e.run(&progressCtx{Context: wctx, ticks: &ticks}, j.Req)
		ch <- outcome{data, err}
	}()
	poll := e.watchdog / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	last := ticks.Load()
	lastProgress := e.now()
	for {
		select {
		case r := <-ch:
			return r.data, r.err
		case <-t.C:
			if cur := ticks.Load(); cur != last {
				last, lastProgress = cur, e.now()
				continue
			}
			if e.now().Sub(lastProgress) >= e.watchdog {
				cancel()
				return nil, ErrStuck
			}
		}
	}
}

// jobExpired reports whether the job's client deadline has passed.
func (e *Engine) jobExpired(j *Job) bool {
	h := j.home
	h.mu.Lock()
	d := j.deadline
	h.mu.Unlock()
	return !d.IsZero() && e.now().After(d)
}

// jobAbandoned reports whether the job's run context was cancelled
// because its last synchronous waiter disconnected. A job that picked
// up a new waiter (or a pinned async submitter) after the cancellation
// raced in is revived with a fresh run context while still queued.
func (e *Engine) jobAbandoned(j *Job) bool {
	h := j.home
	h.mu.Lock()
	defer h.mu.Unlock()
	if j.runCtx == nil || context.Cause(j.runCtx) != ErrAbandoned {
		return false
	}
	if (j.waiters > 0 || j.pinned) && j.state == JobQueued {
		j.runCtx, j.runCancel = context.WithCancelCause(e.baseCtx)
		return false
	}
	return true
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

// panicError is a recovered worker panic in error form; the stack it
// carries surfaces in JobStatus.Error.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", p.val, p.stack)
}

// transient reports whether an attempt error is worth retrying: job
// timeouts and injected transient I/O failures. Simulator and
// validation errors are deterministic, so retrying them is waste.
func transient(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, faultinject.ErrIO)
}

// isShutdownErr reports whether the failure is shutdown interruption
// rather than a property of the job — such jobs keep their pending
// journal record so a restart replays them.
func isShutdownErr(err error) bool {
	return errors.Is(err, ErrShutdown) || errors.Is(err, context.Canceled)
}

// quarantine permanently fails a job whose key keeps panicking and
// journals the poison marker so it survives restarts.
func (e *Engine) quarantine(id int, j *Job, cause error) {
	h := j.home
	h.mu.Lock()
	j.state = JobQuarantined
	j.err = fmt.Errorf("quarantined after %d panics: %w", j.panics, cause)
	msg := j.err.Error()
	h.mu.Unlock()
	w := e.workers[id]
	w.statsMu.Lock()
	w.stats.quarantined++
	w.stats.failed++
	w.statsMu.Unlock()
	rec := journal.Record{Op: journal.OpQuarantined, Key: j.Key, Err: msg}
	if c, err := j.Req.Canonical(); err == nil {
		rec.Req = c
	}
	e.journalAppend(rec)
	e.settle(j)
}

// settle releases a job's run context and closes its done channel —
// the single exit point for quarantine and finish.
func (e *Engine) settle(j *Job) {
	h := j.home
	h.mu.Lock()
	if j.runCancel != nil {
		j.runCancel(nil)
	}
	h.mu.Unlock()
	close(j.done)
}

func (e *Engine) finish(id int, j *Job, data []byte, err error) {
	h := j.home
	h.mu.Lock()
	if err != nil {
		j.state, j.err = JobFailed, err
	} else {
		j.state, j.resultJSON = JobDone, data
	}
	h.mu.Unlock()
	w := e.workers[id]
	journaled := false
	if err != nil {
		w.statsMu.Lock()
		w.stats.failed++
		w.statsMu.Unlock()
		// Shutdown-interrupted jobs keep their pending journal record
		// so the next start replays them; genuine failures are terminal.
		if !isShutdownErr(err) && !e.closing.Load() {
			journaled = e.journalAppend(journal.Record{Op: journal.OpFailed, Key: j.Key, Err: err.Error()})
		} else {
			journaled = true // intentionally left pending, not a durability gap
		}
	} else {
		journaled = e.journalAppend(journal.Record{Op: journal.OpDone, Key: j.Key})
		w.statsMu.Lock()
		w.stats.completed++
		if j.Req.Multicore != nil {
			var r multicore.Result
			if json.Unmarshal(data, &r) == nil {
				addMulticoreLocked(&w.stats, &r)
			}
		} else {
			var r sim.Result
			if json.Unmarshal(data, &r) == nil {
				addUtilizationLocked(&w.stats, r.Utilization)
			}
		}
		w.statsMu.Unlock()
	}
	if e.journal != nil && !journaled {
		h.mu.Lock()
		j.nonDurable = true
		h.mu.Unlock()
	}
	e.settle(j)
}

// addUtilizationLocked folds one freshly simulated cell's utilization
// telemetry into the worker's accumulator. Caller holds statsMu.
func addUtilizationLocked(ws *workerStats, u pipeline.Utilization) {
	ws.utilN++
	for h := 0; h < 2; h++ {
		ws.utilSum.IntQHalfOcc[h] += u.IntQHalfOcc[h]
		ws.utilSum.FPQHalfOcc[h] += u.FPQHalfOcc[h]
	}
	ws.utilSum.ALUGrantShare = addVec(ws.utilSum.ALUGrantShare, u.ALUGrantShare)
	ws.utilSum.RFReadShare = addVec(ws.utilSum.RFReadShare, u.RFReadShare)
}

// addMulticoreLocked folds one freshly computed scheduling run's
// per-core telemetry into the worker's accumulator. Caller holds
// statsMu.
func addMulticoreLocked(ws *workerStats, r *multicore.Result) {
	ws.mcSum.Runs++
	ws.mcSum.CoolingStalls += r.CoolingStalls
	ws.mcSum.Migrations += uint64(r.Migrations)
	for len(ws.mcCoreN) < len(r.PerCore) {
		ws.mcCoreN = append(ws.mcCoreN, 0)
		ws.mcSum.CoreUtilization = append(ws.mcSum.CoreUtilization, 0)
		ws.mcSum.CoreAvgTempK = append(ws.mcSum.CoreAvgTempK, 0)
		ws.mcSum.CorePeakTempK = append(ws.mcSum.CorePeakTempK, 0)
	}
	for i, c := range r.PerCore {
		ws.mcCoreN[i]++
		ws.mcSum.CoreUtilization[i] += c.Utilization
		ws.mcSum.CoreAvgTempK[i] += c.AvgTempK
		if c.PeakTempK > ws.mcSum.CorePeakTempK[i] {
			ws.mcSum.CorePeakTempK[i] = c.PeakTempK
		}
	}
}

// addVec accumulates b into a element-wise, growing a as needed.
func addVec(a, b []float64) []float64 {
	for len(a) < len(b) {
		a = append(a, 0)
	}
	for i, v := range b {
		a[i] += v
	}
	return a
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

// SubmitOptions carries per-submission overload-protection options.
type SubmitOptions struct {
	// Deadline, when nonzero, is the latest wall-clock instant the
	// caller still wants the result. Admission sheds the submission
	// (ErrDeadlineUnmeetable) when the estimated queue wait already
	// blows it; workers shed queued jobs whose deadline passed
	// (ErrDeadlineExpired). Zero applies the engine's default deadline,
	// if configured.
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
	if opt.Deadline.IsZero() && e.defaultDeadline > 0 {
		opt.Deadline = e.now().Add(e.defaultDeadline)
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
		if j.waiters == 0 && !j.pinned && j.runCancel != nil &&
			(j.state == JobQueued || j.state == JobRunning) {
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
	if data, ok := e.cache.Get(key); ok {
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
	if opt.Deadline.IsZero() && e.defaultDeadline > 0 {
		opt.Deadline = e.now().Add(e.defaultDeadline)
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
		if !inFlight && !e.cache.Contains(keys[i]) {
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

// Job returns a snapshot of the job for key. Unknown in-memory keys
// fall back to the cache (content-addressed, so a daemon restarted over
// a warm disk cache still answers for completed jobs).
func (e *Engine) Job(key string) (JobStatus, bool) {
	sh := e.shardFor(key)
	sh.mu.Lock()
	if j, ok := sh.jobs[key]; ok {
		st := statusLocked(j)
		sh.mu.Unlock()
		return st, true
	}
	sh.mu.Unlock()
	if !isKey(key) {
		return JobStatus{}, false
	}
	if data, ok := e.cache.Get(key); ok {
		return JobStatus{Key: key, State: JobDone, Cached: true, Result: data}, true
	}
	return JobStatus{}, false
}

// snapshot returns the job's status under its home shard lock.
func (j *Job) snapshot() JobStatus {
	j.home.mu.Lock()
	defer j.home.mu.Unlock()
	return statusLocked(j)
}

// statusLocked snapshots a job; the caller holds the home shard mutex.
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
	e.batchMu.Lock()
	b, ok := e.batches[key]
	st := BatchStatus{}
	if ok {
		st = e.batchStatus(b)
	}
	e.batchMu.Unlock()
	return st, ok
}

// batchStatus snapshots a batch; the caller holds batchMu. Cell states
// are read through each cell's own shard lock.
func (e *Engine) batchStatus(b *Batch) BatchStatus {
	st := BatchStatus{Key: b.Key, State: b.state, Experiment: b.Spec.ID}
	if b.err != nil {
		st.Error = b.err.Error()
	}
	st.Cells = make([]BatchCellInfo, len(b.cells))
	for i, j := range b.cells {
		cs := j.snapshot()
		st.Cells[i] = BatchCellInfo{
			Key: j.Key, Benchmark: j.Req.Benchmark,
			Variant: variantName(b.Spec, i), State: cs.State, Cached: cs.Cached,
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
	sh := e.shardFor(key)
	sh.mu.Lock()
	j, ok := sh.jobs[key]
	sh.mu.Unlock()
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
	return j.snapshot(), nil
}

// WaitBatch blocks until the batch settles or ctx is done.
func (e *Engine) WaitBatch(ctx context.Context, key string) (BatchStatus, error) {
	e.batchMu.Lock()
	b, ok := e.batches[key]
	e.batchMu.Unlock()
	if !ok {
		return BatchStatus{}, fmt.Errorf("service: unknown batch %q", key)
	}
	select {
	case <-b.done:
	case <-ctx.Done():
		return BatchStatus{}, ctx.Err()
	}
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	return e.batchStatus(b), nil
}

// BatchMatrix assembles a settled done batch into an experiments.Matrix
// (cells in serial iteration order, results decoded from the cached
// JSON), ready for the paper-style report renderers.
func (e *Engine) BatchMatrix(key string) (*experiments.Matrix, error) {
	e.batchMu.Lock()
	b, ok := e.batches[key]
	if !ok {
		e.batchMu.Unlock()
		return nil, fmt.Errorf("service: unknown batch %q", key)
	}
	if b.state != JobDone {
		e.batchMu.Unlock()
		return nil, fmt.Errorf("service: batch %q is %s", key, b.state)
	}
	spec := b.Spec
	cells := make([]*Job, len(b.cells))
	copy(cells, b.cells)
	e.batchMu.Unlock()

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

// RunMatrix runs an experiment spec through the engine: every cell is
// submitted (cached cells settle instantly) and awaited in serial
// order, so progress lines and the assembled Matrix are deterministic.
// This is the path cmd/experiments -cache-dir takes.
func (e *Engine) RunMatrix(ctx context.Context, spec experiments.Spec, w io.Writer) (*experiments.Matrix, error) {
	cells := SpecCells(spec)
	jobs := make([]*Job, len(cells))
	for i, c := range cells {
		j, err := e.Submit(c)
		if err != nil {
			return nil, fmt.Errorf("service: %s/%s: %w", c.Benchmark, variantName(spec, i), err)
		}
		jobs[i] = j
	}
	m := &experiments.Matrix{Spec: spec, Cells: make([]experiments.Cell, len(cells))}
	prog := runner.NewProgress(w, len(cells))
	for i, j := range jobs {
		st, err := e.Wait(ctx, j.Key)
		if err != nil {
			return nil, err
		}
		if st.State != JobDone {
			return nil, fmt.Errorf("service: %s/%s: %s", j.Req.Benchmark, variantName(spec, i), st.Error)
		}
		var r sim.Result
		if err := json.Unmarshal(st.Result, &r); err != nil {
			return nil, fmt.Errorf("service: %s/%s: %w", j.Req.Benchmark, variantName(spec, i), err)
		}
		m.Cells[i] = experiments.Cell{Benchmark: j.Req.Benchmark, Variant: variantName(spec, i), R: &r}
		note := ""
		if st.Cached {
			note = " (cached)"
		}
		prog.Step("%s %-9s %-24s IPC=%.3f stalls=%d%s", spec.ID, j.Req.Benchmark, variantName(spec, i), r.IPC, r.Stalls, note)
	}
	return m, nil
}

// Metrics returns the engine counter snapshot, folding the per-worker
// and per-shard accumulators — the only place they are combined.
func (e *Engine) Metrics() Metrics {
	cs := e.cache.Stats()
	up := time.Since(e.start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ready, _ := e.Ready()

	m := Metrics{
		UptimeSeconds:     up,
		JobsQueued:        int(e.queued.Load()),
		JobsRunning:       int(e.running.Load()),
		JournalErrors:     e.journalErrs.Load(),
		Ready:             ready,
		JobsShedAdmission: e.shedAdmission.Load(),
		JournalSkipped:    e.journalSkipped.Load(),
		Durability:        e.durability(),
		QueueWaitEWMAMS:   float64(e.latencyEWMA()) / float64(time.Millisecond),
		CacheBreaker:      e.cbrk.Snapshot(),
		JournalBreaker:    e.jbrk.Snapshot(),
		Health:            e.healthMetrics(),
		CacheHits:         cs.Hits,
		CacheMisses:       cs.Misses,
		CacheEntries:      cs.Entries,
		Cache:             cs,
		Shards:            make([]ShardMetrics, len(e.shards)),
		Runtime: RuntimeMetrics{
			Goroutines:      runtime.NumGoroutine(),
			NumCPU:          runtime.NumCPU(),
			HeapAllocBytes:  ms.HeapAlloc,
			HeapSysBytes:    ms.HeapSys,
			TotalAllocBytes: ms.TotalAlloc,
			GCCycles:        ms.NumGC,
			GCPauseTotalMS:  float64(ms.PauseTotalNs) / 1e6,
		},
	}
	if e.cbrk.State() != BreakerClosed {
		m.CacheDegraded = 1
	}
	for i, s := range e.shards {
		m.Shards[i] = ShardMetrics{QueueDepth: int(s.qlen.Load())}
		s.mu.Lock()
		m.JobsDeduped += s.deduped
		s.mu.Unlock()
	}
	e.batchMu.Lock()
	m.JobsDeduped += e.batchDeduped
	e.batchMu.Unlock()

	var utilN uint64
	utilSum := UtilizationMetrics{}
	mcSum := MulticoreMetrics{}
	var mcCoreN []uint64
	for _, w := range e.workers {
		w.statsMu.Lock()
		st := &w.stats
		m.JobsCompleted += st.completed
		m.JobsFailed += st.failed
		m.JobsRetried += st.retries
		m.JobPanics += st.panics
		m.JobsQuarantined += st.quarantined
		m.JobsStolen += st.stolen
		m.JobsShedExpired += st.shedExpired
		m.JobsClientAbandoned += st.abandoned
		m.JobsWatchdogFired += st.watchdog
		utilN += st.utilN
		for h := 0; h < 2; h++ {
			utilSum.IntQHalfOcc[h] += st.utilSum.IntQHalfOcc[h]
			utilSum.FPQHalfOcc[h] += st.utilSum.FPQHalfOcc[h]
		}
		utilSum.ALUGrantShare = addVec(utilSum.ALUGrantShare, st.utilSum.ALUGrantShare)
		utilSum.RFReadShare = addVec(utilSum.RFReadShare, st.utilSum.RFReadShare)
		mcSum.Runs += st.mcSum.Runs
		mcSum.CoolingStalls += st.mcSum.CoolingStalls
		mcSum.Migrations += st.mcSum.Migrations
		for len(mcCoreN) < len(st.mcCoreN) {
			mcCoreN = append(mcCoreN, 0)
			mcSum.CoreUtilization = append(mcSum.CoreUtilization, 0)
			mcSum.CoreAvgTempK = append(mcSum.CoreAvgTempK, 0)
			mcSum.CorePeakTempK = append(mcSum.CorePeakTempK, 0)
		}
		for i, n := range st.mcCoreN {
			mcCoreN[i] += n
			mcSum.CoreUtilization[i] += st.mcSum.CoreUtilization[i]
			mcSum.CoreAvgTempK[i] += st.mcSum.CoreAvgTempK[i]
			if st.mcSum.CorePeakTempK[i] > mcSum.CorePeakTempK[i] {
				mcSum.CorePeakTempK[i] = st.mcSum.CorePeakTempK[i]
			}
		}
		w.statsMu.Unlock()
	}
	if up > 0 {
		m.CellsPerSecond = float64(m.JobsCompleted) / up
	}
	m.Utilization = utilizationSnapshot(utilN, utilSum)
	m.Multicore = multicoreSnapshot(mcSum, mcCoreN)
	return m
}

// utilizationSnapshot averages the folded per-cell telemetry.
func utilizationSnapshot(utilN uint64, sum UtilizationMetrics) UtilizationMetrics {
	out := UtilizationMetrics{Cells: utilN}
	if utilN == 0 {
		return out
	}
	n := float64(utilN)
	for h := 0; h < 2; h++ {
		out.IntQHalfOcc[h] = sum.IntQHalfOcc[h] / n
		out.FPQHalfOcc[h] = sum.FPQHalfOcc[h] / n
	}
	out.ALUGrantShare = scaleVec(sum.ALUGrantShare, 1/n)
	out.RFReadShare = scaleVec(sum.RFReadShare, 1/n)
	return out
}

// multicoreSnapshot averages the folded per-run telemetry.
func multicoreSnapshot(sum MulticoreMetrics, coreN []uint64) MulticoreMetrics {
	out := MulticoreMetrics{
		Runs:          sum.Runs,
		CoolingStalls: sum.CoolingStalls,
		Migrations:    sum.Migrations,
	}
	if len(coreN) == 0 {
		return out
	}
	out.CoreUtilization = make([]float64, len(coreN))
	out.CoreAvgTempK = make([]float64, len(coreN))
	out.CorePeakTempK = make([]float64, len(coreN))
	for i, n := range coreN {
		if n == 0 {
			continue
		}
		out.CoreUtilization[i] = sum.CoreUtilization[i] / float64(n)
		out.CoreAvgTempK[i] = sum.CoreAvgTempK[i] / float64(n)
		out.CorePeakTempK[i] = sum.CorePeakTempK[i]
	}
	return out
}

// scaleVec returns a copy of v with every element multiplied by k.
func scaleVec(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

// HealthState is the engine's single degraded-mode state machine,
// ordered by severity: healthy → degraded (a disk breaker is open:
// serving and computing continue with reduced durability or cache
// reach) → overloaded (shedding work, or still replaying the journal)
// → draining (shutting down). It drives /readyz (503 only when
// overloaded or draining), /statusz, and the /metrics health section.
type HealthState string

const (
	HealthHealthy    HealthState = "healthy"
	HealthDegraded   HealthState = "degraded"
	HealthOverloaded HealthState = "overloaded"
	HealthDraining   HealthState = "draining"
)

// evalHealth derives the current state from the engine's signals. A
// rejection keeps the engine overloaded for overloadHold — hysteresis,
// so one burst does not flap /readyz per request.
func (e *Engine) evalHealth() HealthState {
	switch {
	case e.closing.Load() || e.draining.Load():
		return HealthDraining
	case !e.replayed.Load():
		return HealthOverloaded
	}
	if last := e.lastReject.Load(); last != 0 && e.now().UnixNano()-last < int64(e.overloadHold) {
		return HealthOverloaded
	}
	if e.cbrk.State() != BreakerClosed || e.jbrk.State() != BreakerClosed {
		return HealthDegraded
	}
	return HealthHealthy
}

// Health returns the current state and how long it has held, folding
// transitions into the per-state entered counters.
func (e *Engine) Health() (HealthState, time.Duration) {
	cur := e.evalHealth()
	e.healthMu.Lock()
	defer e.healthMu.Unlock()
	if cur != e.healthCur {
		e.healthCur = cur
		e.healthSince = e.now()
		e.healthEntered[cur]++
	}
	return cur, e.now().Sub(e.healthSince)
}

// healthMetrics snapshots the health section for /metrics and /statusz.
func (e *Engine) healthMetrics() HealthMetrics {
	state, held := e.Health()
	e.healthMu.Lock()
	entered := make(map[string]uint64, len(e.healthEntered))
	for s, n := range e.healthEntered {
		entered[string(s)] = n
	}
	e.healthMu.Unlock()
	return HealthMetrics{State: string(state), SinceSeconds: held.Seconds(), Entered: entered}
}

// Ready reports whether the engine should receive traffic, with a
// reason when it should not. Degraded is still ready — a daemon
// serving from memory with durability off beats no daemon — only
// overloaded and draining fail the readiness probe. The HTTP /readyz
// endpoint serves this.
func (e *Engine) Ready() (bool, string) {
	switch state, _ := e.Health(); state {
	case HealthDraining:
		return false, "draining"
	case HealthOverloaded:
		if !e.replayed.Load() {
			return false, "journal replay"
		}
		return false, "overloaded"
	}
	return true, ""
}

// durability names the journal contract currently in force: "off" (no
// journal configured), "journaled" (every transition WAL-logged), or
// "none" (journal breaker open: work is accepted and computed but
// transitions are not persisted; results settle NonJournaled and the
// engine re-journals outstanding state when the disk recovers).
func (e *Engine) durability() string {
	switch {
	case e.journal == nil:
		return "off"
	case e.jbrk.State() != BreakerClosed:
		return "none"
	default:
		return "journaled"
	}
}

// Statusz is the operator-facing /statusz snapshot: the health state
// machine, the degraded-mode contracts in force, breaker internals, and
// the overload-control readings behind recent admission decisions.
type Statusz struct {
	State          string            `json:"state"`
	SinceSeconds   float64           `json:"since_seconds"`
	Entered        map[string]uint64 `json:"entered"`
	Ready          bool              `json:"ready"`
	Reason         string            `json:"reason,omitempty"`
	Durability     string            `json:"durability"`
	CacheDegraded  bool              `json:"cache_degraded"`
	CacheBreaker   BreakerSnapshot   `json:"cache_breaker"`
	JournalBreaker BreakerSnapshot   `json:"journal_breaker"`

	QueueDepth        int     `json:"queue_depth"`
	QueueCapacity     int     `json:"queue_capacity"`
	QueueWaitEWMAMS   float64 `json:"queue_wait_ewma_ms"`
	RetryAfterSeconds int     `json:"retry_after_seconds"`
	DefaultDeadlineMS int64   `json:"default_deadline_ms,omitempty"`
	WatchdogMS        int64   `json:"watchdog_ms,omitempty"`

	JobsShedExpired     uint64  `json:"jobs_shed_expired"`
	JobsShedAdmission   uint64  `json:"jobs_shed_admission"`
	JobsClientAbandoned uint64  `json:"jobs_client_abandoned"`
	JobsWatchdogFired   uint64  `json:"jobs_watchdog_fired"`
	JournalSkipped      uint64  `json:"journal_skipped"`
	UptimeSeconds       float64 `json:"uptime_seconds"`
}

// Statusz returns the degraded-mode snapshot served at /statusz.
func (e *Engine) Statusz() Statusz {
	hm := e.healthMetrics()
	ready, reason := e.Ready()
	var shed, abandoned, watchdog uint64
	for _, w := range e.workers {
		w.statsMu.Lock()
		shed += w.stats.shedExpired
		abandoned += w.stats.abandoned
		watchdog += w.stats.watchdog
		w.statsMu.Unlock()
	}
	return Statusz{
		State:          hm.State,
		SinceSeconds:   hm.SinceSeconds,
		Entered:        hm.Entered,
		Ready:          ready,
		Reason:         reason,
		Durability:     e.durability(),
		CacheDegraded:  e.cbrk.State() != BreakerClosed,
		CacheBreaker:   e.cbrk.Snapshot(),
		JournalBreaker: e.jbrk.Snapshot(),

		QueueDepth:        int(e.queued.Load()),
		QueueCapacity:     e.depth,
		QueueWaitEWMAMS:   float64(e.latencyEWMA()) / float64(time.Millisecond),
		RetryAfterSeconds: e.RetryAfterSeconds(),
		DefaultDeadlineMS: e.defaultDeadline.Milliseconds(),
		WatchdogMS:        e.watchdog.Milliseconds(),

		JobsShedExpired:     shed,
		JobsShedAdmission:   e.shedAdmission.Load(),
		JobsClientAbandoned: abandoned,
		JobsWatchdogFired:   watchdog,
		JournalSkipped:      e.journalSkipped.Load(),
		UptimeSeconds:       time.Since(e.start).Seconds(),
	}
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
	e.closing.Store(true)
	e.draining.Store(true)
	// Fence: a submitter past the closed check holds its shard lock
	// until its job is enqueued, so after one lock/unlock round every
	// in-flight enqueue is visible to the workers' shutdown sweep and
	// every later submit fails with ErrShutdown.
	for _, s := range e.shards {
		s.mu.Lock()
		s.mu.Unlock() //nolint:staticcheck // empty critical section as a fence
	}
	close(e.stopCh)

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		e.cancel() // abort in-flight runs
		<-done
	}
	e.cancel()
	// Workers are parked, so every journal append has happened; flush
	// them to stable storage before reporting the engine stopped.
	if e.journal != nil {
		if cerr := e.journal.Close(); cerr != nil {
			e.journalErrs.Add(1)
		}
	}
	return err
}
