// The dispatcher under the job engine: one FIFO run queue, guarded by
// the engine mutex together with the job map, that every worker pops
// from. Queue capacity (EngineConfig.QueueDepth) is the queue length
// checked under that lock, which is also what makes batch admission
// all-or-nothing (see DESIGN.md, "One run queue").
package service

import (
	"sync"
	"time"

	"repro/internal/rng"
)

// queuedLocked is the number of jobs waiting to run. Caller holds e.mu.
func (e *Engine) queuedLocked() int { return len(e.queue) - e.qhead }

// pop removes and returns the oldest queued job, or nil. A pop frees a
// queue slot, so it nudges a blocked journal-replay submitter, which
// waits on spaceCh instead of polling.
func (e *Engine) pop() *Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.qhead == len(e.queue) {
		return nil
	}
	j := e.queue[e.qhead]
	e.queue[e.qhead] = nil
	e.qhead++
	if e.qhead == len(e.queue) {
		e.queue, e.qhead = e.queue[:0], 0
	}
	select {
	case e.spaceCh <- struct{}{}:
	default:
	}
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

// worker is one dispatch loop: pop the oldest queued job, else sleep on
// the wake channel until either new work or shutdown arrives.
func (e *Engine) worker(id int) {
	defer e.wg.Done()
	for {
		j := e.pop()
		if j == nil {
			select {
			case <-e.wakeCh:
				continue
			case <-e.stopCh:
				e.failQueued(id)
				return
			}
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

// signalWork wakes one idle worker. The channel holds QueueDepth
// tokens — as many as there can be queued jobs — so a dropped send
// implies enough outstanding tokens that every queued job is still
// guaranteed a wakeup (each consumed token triggers a pop before the
// worker sleeps again).
func (e *Engine) signalWork() {
	select {
	case e.wakeCh <- struct{}{}:
	default:
	}
}

// failQueued is a worker's exit sweep at shutdown: every job still
// queued fails fast with ErrShutdown (keeping its pending journal
// record, so a restart replays it). Concurrent sweepers are fine —
// pops are serialized by the engine lock.
func (e *Engine) failQueued(id int) {
	for j := e.pop(); j != nil; j = e.pop() {
		e.finish(id, j, nil, ErrShutdown)
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
