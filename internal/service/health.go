// Observability: the /metrics snapshot and the health state machine
// behind /readyz.
package service

import (
	"runtime"
	"time"
)

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

	CellsPerSecond float64    `json:"cells_per_second"`
	Cache          CacheStats `json:"cache"`

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

// Metrics returns the engine counter snapshot. Everything the engine
// lock guards — queue, counters, EWMA, telemetry folds and health — is
// read under one hold of it, so the snapshot is one coherent reading.
func (e *Engine) Metrics() Metrics {
	up := time.Since(e.start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := Metrics{
		UptimeSeconds:  up,
		JournalErrors:  e.journalErrs.Load(),
		JournalSkipped: e.journalSkipped.Load(),
		Durability:     e.durability(),
		CacheBreaker:   e.cbrk.Snapshot(),
		JournalBreaker: e.jbrk.Snapshot(),
		Cache:          e.cfg.Cache.Stats(),
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

	e.mu.Lock()
	state, held := e.healthLocked()
	m.Health = HealthMetrics{State: string(state), SinceSeconds: held.Seconds(),
		Entered: make(map[string]uint64, len(e.healthEntered))}
	for s, n := range e.healthEntered {
		m.Health.Entered[string(s)] = n
	}
	m.JobsQueued, m.JobsRunning, m.JobsDeduped = e.queuedLocked(), e.running, e.deduped
	st := &e.stats
	m.JobsCompleted, m.JobsFailed, m.JobsRetried = st.completed, st.failed, st.retries
	m.JobPanics, m.JobsQuarantined = st.panics, st.quarantined
	m.JobsShedExpired, m.JobsShedAdmission = st.shedExpired, st.shedAdmission
	m.JobsClientAbandoned, m.JobsWatchdogFired = st.abandoned, st.watchdog
	m.QueueWaitEWMAMS = float64(time.Duration(e.latEWMA*float64(time.Second))) / float64(time.Millisecond)
	m.Utilization = utilizationSnapshot(st.util)
	m.Multicore = multicoreSnapshot(st.mc, st.mcCoreN)
	e.mu.Unlock()

	m.Ready, _ = e.readiness(state)
	if up > 0 {
		m.CellsPerSecond = float64(m.JobsCompleted) / up
	}
	return m
}

// addUtilization adds one cell's utilization telemetry src into the
// sum dst.
func addUtilization(dst *UtilizationMetrics, src UtilizationMetrics) {
	dst.Cells += src.Cells
	for h := 0; h < 2; h++ {
		dst.IntQHalfOcc[h] += src.IntQHalfOcc[h]
		dst.FPQHalfOcc[h] += src.FPQHalfOcc[h]
	}
	dst.ALUGrantShare = addVec(dst.ALUGrantShare, src.ALUGrantShare)
	dst.RFReadShare = addVec(dst.RFReadShare, src.RFReadShare)
}

// addMulticore adds one multicore run src, with per-core run counts
// srcN, into the sum dst with counts dstN. Peak temperatures fold as
// maxima.
func addMulticore(dst *MulticoreMetrics, dstN *[]uint64, src MulticoreMetrics, srcN []uint64) {
	dst.Runs += src.Runs
	dst.CoolingStalls += src.CoolingStalls
	dst.Migrations += src.Migrations
	*dstN = addVec(*dstN, srcN)
	dst.CoreUtilization = addVec(dst.CoreUtilization, src.CoreUtilization)
	dst.CoreAvgTempK = addVec(dst.CoreAvgTempK, src.CoreAvgTempK)
	for len(dst.CorePeakTempK) < len(src.CorePeakTempK) {
		dst.CorePeakTempK = append(dst.CorePeakTempK, 0)
	}
	for i, p := range src.CorePeakTempK {
		if p > dst.CorePeakTempK[i] {
			dst.CorePeakTempK[i] = p
		}
	}
}

// addVec accumulates b into a element-wise, growing a as needed.
func addVec[T uint64 | float64](a, b []T) []T {
	for len(a) < len(b) {
		a = append(a, 0)
	}
	for i, v := range b {
		a[i] += v
	}
	return a
}

// utilizationSnapshot averages the folded per-cell telemetry.
func utilizationSnapshot(sum UtilizationMetrics) UtilizationMetrics {
	out := UtilizationMetrics{Cells: sum.Cells}
	if sum.Cells == 0 {
		return out
	}
	n := float64(sum.Cells)
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
// overloaded or draining) and the /metrics health section.
type HealthState string

const (
	HealthHealthy    HealthState = "healthy"
	HealthDegraded   HealthState = "degraded"
	HealthOverloaded HealthState = "overloaded"
	HealthDraining   HealthState = "draining"
)

// overloadHold is how long after a shed or queue-full rejection the
// engine keeps reporting overloaded: hysteresis, so one burst does not
// flap /readyz per request.
const overloadHold = 2 * time.Second

// Health returns the current state and how long it has held.
func (e *Engine) Health() (HealthState, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.healthLocked()
}

// healthLocked derives the current state from the engine's signals,
// folds a transition into the per-state entered counters, and returns
// the state and how long it has held. Caller holds e.mu.
func (e *Engine) healthLocked() (HealthState, time.Duration) {
	now := e.now()
	cur := HealthHealthy
	switch {
	case e.closed.Load() || e.draining.Load():
		cur = HealthDraining
	case !e.replayed.Load() || (!e.lastReject.IsZero() && now.Sub(e.lastReject) < overloadHold):
		cur = HealthOverloaded
	case e.cbrk.State() != BreakerClosed || e.jbrk.State() != BreakerClosed:
		cur = HealthDegraded
	}
	if cur != e.healthCur {
		e.healthCur, e.healthSince = cur, now
		e.healthEntered[cur]++
	}
	return cur, now.Sub(e.healthSince)
}

// Ready reports whether the engine should receive traffic, with a
// reason when it should not. Degraded is still ready — a daemon
// serving from memory with durability off beats no daemon — only
// overloaded and draining fail the readiness probe. The HTTP /readyz
// endpoint serves this.
func (e *Engine) Ready() (bool, string) {
	state, _ := e.Health()
	return e.readiness(state)
}

// readiness is the Ready verdict for health state s.
func (e *Engine) readiness(s HealthState) (bool, string) {
	switch s {
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
