// Observability: the /metrics snapshot, the health state machine
// behind /readyz, and /statusz, a projection of one Metrics snapshot.
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

// Metrics returns the engine counter snapshot, folding the per-worker
// accumulators — the only place they are combined.
func (e *Engine) Metrics() Metrics {
	up := time.Since(e.start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	health := e.healthMetrics()
	ready, _ := e.readiness(HealthState(health.State))

	m := Metrics{
		UptimeSeconds:     up,
		JobsRunning:       int(e.running.Load()),
		JournalErrors:     e.journalErrs.Load(),
		Ready:             ready,
		JobsShedAdmission: e.shedAdmission.Load(),
		JournalSkipped:    e.journalSkipped.Load(),
		Durability:        e.durability(),
		QueueWaitEWMAMS:   float64(e.latencyEWMA()) / float64(time.Millisecond),
		CacheBreaker:      e.cbrk.Snapshot(),
		JournalBreaker:    e.jbrk.Snapshot(),
		Health:            health,
		Cache:             e.cfg.Cache.Stats(),
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
	m.JobsQueued, m.JobsDeduped = e.queuedLocked(), e.deduped
	e.mu.Unlock()

	var util UtilizationMetrics
	var mc MulticoreMetrics
	var mcCoreN []uint64
	for _, w := range e.workers {
		w.statsMu.Lock()
		st := &w.stats
		m.JobsCompleted += st.completed
		m.JobsFailed += st.failed
		m.JobsRetried += st.retries
		m.JobPanics += st.panics
		m.JobsQuarantined += st.quarantined
		m.JobsShedExpired += st.shedExpired
		m.JobsClientAbandoned += st.abandoned
		m.JobsWatchdogFired += st.watchdog
		addUtilization(&util, st.util)
		addMulticore(&mc, &mcCoreN, st.mc, st.mcCoreN)
		w.statsMu.Unlock()
	}
	if up > 0 {
		m.CellsPerSecond = float64(m.JobsCompleted) / up
	}
	m.Utilization = utilizationSnapshot(util)
	m.Multicore = multicoreSnapshot(mc, mcCoreN)
	return m
}

// addUtilization adds the utilization sum src — one cell's telemetry,
// or a worker's running sum — into the sum dst.
func addUtilization(dst *UtilizationMetrics, src UtilizationMetrics) {
	dst.Cells += src.Cells
	for h := 0; h < 2; h++ {
		dst.IntQHalfOcc[h] += src.IntQHalfOcc[h]
		dst.FPQHalfOcc[h] += src.FPQHalfOcc[h]
	}
	dst.ALUGrantShare = addVec(dst.ALUGrantShare, src.ALUGrantShare)
	dst.RFReadShare = addVec(dst.RFReadShare, src.RFReadShare)
}

// addMulticore adds the multicore sum src — one run, or a worker's
// running sum — with per-core run counts srcN into the sum dst with
// counts dstN. Peak temperatures fold as maxima.
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
	case e.closed.Load() || e.draining.Load():
		return HealthDraining
	case !e.replayed.Load():
		return HealthOverloaded
	}
	if last := e.lastReject.Load(); last != 0 && e.now().UnixNano()-last < int64(e.cfg.OverloadHold) {
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

// Statusz returns the degraded-mode snapshot served at /statusz: one
// Metrics snapshot projected, plus the configuration it runs under.
func (e *Engine) Statusz() Statusz {
	m := e.Metrics()
	_, reason := e.readiness(HealthState(m.Health.State))
	return Statusz{
		State:          m.Health.State,
		SinceSeconds:   m.Health.SinceSeconds,
		Entered:        m.Health.Entered,
		Ready:          m.Ready,
		Reason:         reason,
		Durability:     m.Durability,
		CacheDegraded:  m.CacheDegraded != 0,
		CacheBreaker:   m.CacheBreaker,
		JournalBreaker: m.JournalBreaker,

		QueueDepth:        m.JobsQueued,
		QueueCapacity:     e.cfg.QueueDepth,
		QueueWaitEWMAMS:   m.QueueWaitEWMAMS,
		RetryAfterSeconds: e.RetryAfterSeconds(),
		DefaultDeadlineMS: e.cfg.DefaultDeadline.Milliseconds(),
		WatchdogMS:        e.cfg.Watchdog.Milliseconds(),

		JobsShedExpired:     m.JobsShedExpired,
		JobsShedAdmission:   m.JobsShedAdmission,
		JobsClientAbandoned: m.JobsClientAbandoned,
		JobsWatchdogFired:   m.JobsWatchdogFired,
		JournalSkipped:      m.JournalSkipped,
		UptimeSeconds:       m.UptimeSeconds,
	}
}
