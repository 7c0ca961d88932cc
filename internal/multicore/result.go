package multicore

import (
	"fmt"
	"strings"
)

// Result summarizes one multicore scheduling run. All fields are plain
// data with stable snake_case JSON names; results round-trip through
// encoding/json for the service's content-addressed cache.
type Result struct {
	Cores     int    `json:"cores"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	Scheduler string `json:"scheduler"`
	Seed      uint64 `json:"seed"`

	// Cycles is the wall-clock makespan: lockstep cycles until the last
	// task retired (or the horizon, if tasks were still in flight).
	Cycles    int64 `json:"cycles"`
	Intervals int   `json:"intervals"`
	// HorizonHit records that the cycle cap ended the run before the
	// queue drained.
	HorizonHit bool `json:"horizon_hit"`

	TasksCompleted int `json:"tasks_completed"`
	TasksTotal     int `json:"tasks_total"`
	Migrations     int `json:"migrations"`

	CoolingStalls uint64 `json:"cooling_stalls"`
	StallCycles   int64  `json:"stall_cycles"`

	TotalCommitted uint64 `json:"total_committed"`
	// AggIPC is the aggregate throughput: instructions committed across
	// all cores per wall-clock cycle.
	AggIPC float64 `json:"agg_ipc"`

	PeakTempK float64 `json:"peak_temp_k"`
	AvgTempK  float64 `json:"avg_temp_k"`

	PerCore []CoreResult `json:"per_core"`
}

// CoreResult is one core's slice of the run.
type CoreResult struct {
	Core          int     `json:"core"`
	TasksRun      int     `json:"tasks_run"`
	Committed     uint64  `json:"committed"`
	ActiveCycles  int64   `json:"active_cycles"`
	StallCycles   int64   `json:"stall_cycles"`
	IdleCycles    int64   `json:"idle_cycles"`
	CoolingStalls uint64  `json:"cooling_stalls"`
	Utilization   float64 `json:"utilization"`
	AvgPowerW     float64 `json:"avg_power_w"`
	AvgTempK      float64 `json:"avg_temp_k"`
	PeakTempK     float64 `json:"peak_temp_k"`
	HottestBlock  string  `json:"hottest_block"`
}

// Result snapshots the run's summary. In-flight tasks (horizon runs)
// contribute their committed instructions without being counted complete.
func (s *System) Result() *Result {
	rows, cols := Grid(len(s.cores))
	r := &Result{
		Cores:     len(s.cores),
		Rows:      rows,
		Cols:      cols,
		Scheduler: s.sched.Name(),
		Seed:      s.Params.Seed,
		Cycles:    s.cycles,
		Intervals: s.intervals,

		TasksTotal: len(s.queue),
		Migrations: s.migrations,
	}
	for _, t := range s.queue {
		if t.done {
			r.TasksCompleted++
		}
	}
	r.HorizonHit = s.cycles >= s.Params.Cycles && r.TasksCompleted < r.TasksTotal
	for _, c := range s.cores {
		committed := c.committed
		if c.machine != nil {
			committed += c.machine.Pipe.Committed
		}
		cr := CoreResult{
			Core:          c.id,
			TasksRun:      c.tasksRun,
			Committed:     committed,
			ActiveCycles:  c.activeCycles,
			StallCycles:   c.stallCycles,
			IdleCycles:    s.cycles - c.activeCycles - c.stallCycles,
			CoolingStalls: c.coolingStallEvents,
			PeakTempK:     c.tempPeak,
			HottestBlock:  s.basePlan.Blocks[c.hotBlock].Name,
		}
		if s.cycles > 0 {
			cr.Utilization = float64(c.activeCycles) / float64(s.cycles)
		}
		if s.intervals > 0 {
			cr.AvgTempK = c.tempSum / float64(s.intervals)
		}
		if s.intervals > 0 {
			cr.AvgPowerW = c.powerSum / float64(s.intervals)
		}
		r.PerCore = append(r.PerCore, cr)
		r.TotalCommitted += committed
		r.StallCycles += c.stallCycles
		r.CoolingStalls += c.coolingStallEvents
		if cr.PeakTempK > r.PeakTempK {
			r.PeakTempK = cr.PeakTempK
		}
		r.AvgTempK += cr.AvgTempK
	}
	r.AvgTempK /= float64(len(s.cores))
	if s.cycles > 0 {
		r.AggIPC = float64(r.TotalCommitted) / float64(s.cycles)
	}
	return r
}

// Report renders the run as the fixed-width text block the experiment
// report and the service's report endpoint share.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d cores (%dx%d), scheduler %s, %d/%d tasks",
		r.Cores, r.Rows, r.Cols, r.Scheduler, r.TasksCompleted, r.TasksTotal)
	if r.HorizonHit {
		b.WriteString(" [horizon hit]")
	}
	fmt.Fprintf(&b, "\n  makespan %d cycles, aggregate IPC %.3f, %d migrations\n",
		r.Cycles, r.AggIPC, r.Migrations)
	fmt.Fprintf(&b, "  peak %.2f K, avg %.2f K, %d cooling stalls (%d stall cycles)\n",
		r.PeakTempK, r.AvgTempK, r.CoolingStalls, r.StallCycles)
	b.WriteString("  core  tasks  util   avgW    avgK    peakK  stalls  hottest\n")
	for _, c := range r.PerCore {
		fmt.Fprintf(&b, "  %4d  %5d  %4.2f  %5.2f  %6.2f  %6.2f  %6d  %s\n",
			c.Core, c.TasksRun, c.Utilization, c.AvgPowerW, c.AvgTempK, c.PeakTempK,
			c.CoolingStalls, c.HottestBlock)
	}
	return b.String()
}
