// The dispatcher under the job engine: one FIFO run queue, guarded by
// the engine mutex together with the job map, that every worker pops
// from. Queue capacity (EngineConfig.QueueDepth) is the queue length
// checked under that lock, which is also what makes batch admission
// all-or-nothing (see DESIGN.md, "One run queue").
package service

import "time"

// queuedLocked is the number of jobs waiting to run. Caller holds e.mu.
func (e *Engine) queuedLocked() int { return len(e.queue) - e.qhead }

// pop removes and returns the oldest queued job, waiting on e.work
// while the queue is empty; it returns nil once Shutdown has begun and
// the queue is empty. A pop frees a queue slot, so it signals e.space,
// on which a journal replay blocked by a full queue waits.
func (e *Engine) pop() *Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.qhead == len(e.queue) {
		if e.closed.Load() {
			return nil
		}
		e.work.Wait()
	}
	j := e.queue[e.qhead]
	e.queue[e.qhead] = nil
	e.qhead++
	if e.qhead == len(e.queue) {
		e.queue, e.qhead = e.queue[:0], 0
	}
	e.space.Signal()
	return j
}

// defaultJitterSeed seeds the retry-jitter rng. Jitter needs
// decorrelation, not entropy, so a fixed seed is fine — and keeps
// backoff schedules reproducible in tests.
const defaultJitterSeed = 0x70697065746864 // "pipethd"

// worker is one dispatch loop: run the oldest queued job, until
// Shutdown has begun and the queue is empty.
func (e *Engine) worker() {
	defer e.wg.Done()
	for j := e.pop(); j != nil; j = e.pop() {
		// Graceful shutdown drains *running* jobs; queued ones fail fast
		// with ErrShutdown so clients can resubmit elsewhere. A job whose
		// client gave up — its only waiter disconnected, or its deadline
		// passed in the queue — is shed in O(1) instead of burning a
		// worker on it.
		if err := e.stopReason(j); err != nil {
			e.finish(j, nil, err)
			continue
		}
		e.runJob(j)
	}
}

// retryMax caps the retry backoff delay.
const retryMax = 2 * time.Second

// backoff sleeps the exponential-backoff delay for attempt (0-based)
// with jitter in [d/2, d] drawn from the engine's jitter rng. It wakes
// early when the job's run context ends (runDone) or Shutdown begins;
// the stop check that follows it says why.
func (e *Engine) backoff(attempt int, runDone <-chan struct{}) {
	d := e.cfg.retryBase << uint(attempt)
	if d <= 0 || d > retryMax {
		d = retryMax
	}
	e.mu.Lock()
	d = d/2 + time.Duration(e.jitter.Intn(int(d/2)+1))
	e.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-runDone:
	case <-e.stopCh:
	}
}
