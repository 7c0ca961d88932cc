// The sharded dispatcher under the job engine: jobs are hashed by key
// onto N shards, each owning a slice of the job map, the single-flight
// table, and a bounded FIFO run queue. Worker i is pinned to shard i:
// it drains its local queue first and, when idle, steals the oldest job
// from the busiest sibling, so a burst that hashes unevenly still keeps
// every worker busy. Aggregate capacity (EngineConfig.QueueDepth) is a
// single atomic reservation counter, which is what makes batch
// admission all-or-nothing without a global lock (see DESIGN.md,
// "Sharded engine and work stealing").
package service

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// shard is one slice of the engine: a job map, panic counters, and a
// run queue, all guarded by its own mutex. Submissions for a key always
// land on the same shard (shardFor), so single-flight deduplication and
// panic quarantine counters need no cross-shard coordination.
type shard struct {
	mu          sync.Mutex
	jobs        map[string]*Job
	panicCounts map[string]int // recovered panics per job key
	queue       []*Job         // FIFO run queue: push at tail, pop at queue[qhead]
	qhead       int
	deduped     uint64 // single-flight joins on this shard

	// qlen mirrors the queue length for the lock-free busiest-sibling
	// scan; pops under mu are the authority.
	qlen atomic.Int64
}

// push appends a job to the run queue. Caller holds s.mu.
func (s *shard) push(j *Job) {
	s.queue = append(s.queue, j)
	s.qlen.Add(1)
}

// pop removes and returns the oldest queued job, or nil.
func (s *shard) pop() *Job {
	s.mu.Lock()
	j := s.popLocked()
	s.mu.Unlock()
	return j
}

func (s *shard) popLocked() *Job {
	if s.qhead == len(s.queue) {
		return nil
	}
	j := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qhead = 0
	}
	s.qlen.Add(-1)
	return j
}

// workerState is one worker's private slice of the engine metrics plus
// its retry-jitter rng. The stats block is written only by its owner
// worker (and the submit path never touches it), so folding telemetry
// after every job contends with nothing; Metrics() combines the blocks
// at read time under the per-worker statsMu.
type workerState struct {
	statsMu sync.Mutex
	stats   workerStats

	// rng drives retry-backoff jitter for this worker alone — the
	// global math/rand lock is off the retry path. Seeded by
	// jitterSeed, so the draw sequence is deterministic per worker.
	rng *rng.Source
}

// workerStats are the run-side counters and telemetry folds.
type workerStats struct {
	completed   uint64
	failed      uint64
	retries     uint64
	panics      uint64
	quarantined uint64
	stolen      uint64
	shedExpired uint64 // client deadline passed before the job completed
	abandoned   uint64 // sole synchronous waiter disconnected
	watchdog    uint64 // attempts force-failed for lack of progress

	util    UtilizationMetrics // sums over the cells this worker simulated
	mc      MulticoreMetrics   // sums over its multicore runs, peaks as maxima
	mcCoreN []uint64           // its multicore runs per core
}

// jitterSeed derives worker i's retry-jitter stream from a seed: the
// golden-ratio multiply decorrelates consecutive workers and rng.New
// diffuses the result through splitmix64 (the same derivation
// discipline as multicore's per-core streams). Deterministic by
// construction: the same (seed, worker) pair always yields the same
// jitter sequence.
func jitterSeed(seed uint64, worker int) uint64 {
	return seed ^ 0x9e3779b97f4a7c15*uint64(worker+1)
}

// defaultJitterSeed seeds the per-worker retry-jitter rngs. Jitter
// needs decorrelation, not entropy, so a fixed seed is fine — and keeps
// backoff schedules reproducible in tests.
const defaultJitterSeed = 0x70697065746864 // "pipethd"

// shardFor hashes a job key onto its home shard with FNV-1a over at
// most the first 16 bytes. The hash must accept arbitrary strings
// (status lookups probe unknown ids), and job keys are uniform SHA-256
// hex, so a 16-hex-digit prefix already carries 64 uniform bits —
// mixing the remaining 48 bytes would spend time buying nothing.
func (e *Engine) shardFor(key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	n := len(key)
	if n > 16 {
		n = 16
	}
	h := uint64(offset64)
	for i := 0; i < n; i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return e.shards[h%uint64(len(e.shards))]
}

// worker is the pinned dispatch loop for shard id%len(shards): drain
// the local queue, then steal, then sleep on the wake channel until
// either new work or shutdown arrives.
func (e *Engine) worker(id int) {
	defer e.wg.Done()
	local := e.shards[id%len(e.shards)]
	for {
		j, stolen := e.next(local)
		if j == nil {
			select {
			case <-e.wakeCh:
				continue
			case <-e.stopCh:
				e.failQueued(id)
				return
			}
		}
		// The job left its queue: aggregate capacity is free again.
		e.releaseSlot(1)
		if stolen {
			w := e.workers[id]
			w.statsMu.Lock()
			w.stats.stolen++
			w.statsMu.Unlock()
		}
		// Graceful shutdown drains *running* jobs; queued ones fail fast
		// so clients can resubmit elsewhere. A job whose client gave up —
		// its only waiter disconnected, or its deadline passed in the
		// queue — is shed in O(1) instead of burning a worker on it.
		if err := e.stopReason(j); err != nil {
			e.finish(id, j, nil, err)
			continue
		}
		e.runJob(id, j)
	}
}

// next pops the local queue, falling back to stealing the oldest job
// from the busiest sibling. The busiest-first policy mirrors the
// paper's balance thesis at the dispatch layer: taking load from the
// deepest queue flattens the utilization (and hence the wait-time)
// peaks across shards.
func (e *Engine) next(local *shard) (j *Job, stolen bool) {
	if j := local.pop(); j != nil {
		return j, false
	}
	var busiest *shard
	var depth int64
	for _, s := range e.shards {
		if s == local {
			continue
		}
		if n := s.qlen.Load(); n > depth {
			busiest, depth = s, n
		}
	}
	if busiest == nil {
		return nil, false
	}
	if j := busiest.pop(); j != nil {
		return j, true
	}
	return nil, false
}

// signalWork wakes one idle worker. The channel holds QueueDepth
// tokens — as many as there can be queued jobs — so a dropped send
// implies enough outstanding tokens that every queued job is still
// guaranteed a wakeup (each consumed token triggers a full rescan of
// all shards before the worker sleeps again).
func (e *Engine) signalWork() {
	select {
	case e.wakeCh <- struct{}{}:
	default:
	}
}

// reserveSlots claims n units of aggregate queue capacity, all or
// nothing — the contention-free form of the old "is there room in the
// channel" check, and the primitive that makes batch admission atomic
// across shards.
func (e *Engine) reserveSlots(n int) bool {
	if n == 0 {
		return true
	}
	for {
		cur := e.queued.Load()
		if int(cur)+n > e.cfg.QueueDepth {
			return false
		}
		if e.queued.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

// releaseSlot returns n units of queue capacity and nudges a blocked
// journal-replay submitter, which waits on spaceCh instead of polling.
func (e *Engine) releaseSlot(n int) {
	if n == 0 {
		return
	}
	e.queued.Add(-int64(n))
	select {
	case e.spaceCh <- struct{}{}:
	default:
	}
}

// failQueued is a worker's exit sweep at shutdown: every job still
// queued on any shard fails fast with ErrShutdown (keeping its pending
// journal record, so a restart replays it). Concurrent sweepers are
// fine — pops are serialized per shard.
func (e *Engine) failQueued(id int) {
	for _, s := range e.shards {
		for {
			j := s.pop()
			if j == nil {
				break
			}
			e.releaseSlot(1)
			e.finish(id, j, nil, ErrShutdown)
		}
	}
}

// retryMax caps the retry backoff delay.
const retryMax = 2 * time.Second

// backoff sleeps the exponential-backoff delay for attempt (0-based)
// with jitter in [d/2, d] drawn from the worker's own rng. It wakes
// early when the job's run context ends (runDone) or Shutdown begins;
// the stop check that follows it says why.
func (e *Engine) backoff(id int, attempt int, runDone <-chan struct{}) {
	d := e.cfg.RetryBase << uint(attempt)
	if d <= 0 || d > retryMax {
		d = retryMax
	}
	d = d/2 + time.Duration(e.workers[id].rng.Intn(int(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-runDone:
	case <-e.stopCh:
	}
}
