// Command pipebench is the end-to-end benchmark for the simulator and
// pipethermd. One invocation runs one workload, generated from a seed,
// checks the program's outputs, prints each metric on a line of its own
// and ends with a one-line JSON summary:
//
//	pipebench -workload paper-matrix -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// records spans at each layer boundary (Chrome trace-event JSON, which
// Perfetto loads) and reports per-layer metrics instead. bench/run.sh
// builds this command and pipethermd from the checkout and runs it from
// the repository root; bench/README.md catalogues the workloads and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports untraced, and
// BENCHMARK.json gates. Each operation is a workload's unit of work: a
// simulation cell (paper-matrix), a multicore scheduling run (multicore)
// or a job request (service-*). The tail latency is printed but not
// gated: in sizing, the cache-hit p99 ranged from 1.5 to 4.6 ms over ten
// runs, and the simulator workloads have too few operations per run for
// any percentile above the median.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics every workload reports traced. Layer metrics
// that only some workloads have are printed as information lines.
var perLayer = []metricDef{
	{"sim.new_us", "us"},
	{"pipeline.warmup_ns_per_inst", "ns"},
	{"pipeline.cycle_ns", "ns"},
	{"pipeline.ns_per_inst", "ns"},
	{"trace.next_ns", "ns"},
	{"power.drain_ns", "ns"},
	{"thermal.advance_us", "us"},
	{"thermal.warmstart_us", "us"},
	{"core.control_ns", "ns"},
	{"sim.residue_pct", "%"},
	{"sim.fidelity_mismatches", "count"},
	{"core.cooling_stalls", "count"},
	{"service.key_us", "us"},
	{"service.validate_us", "us"},
	{"service.cache_get_mem_us", "us"},
	{"service.cache_get_disk_us", "us"},
	{"service.cache_put_ms", "ms"},
	{"journal.append_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// infoUnits gives the units of the information lines.
var infoUnits = map[string]string{
	"sim.replica_cells": "count", "pipeline.cycles": "count", "pipeline.committed": "count",
	"pipeline.fetched": "count", "pipeline.share_pct": "%", "trace.share_est_pct": "%",
	"core.stall_cycle_pct": "%", "sim_minst_per_s": "Minst/s", "error_rate": "ratio",
	"ops": "count", "latency_tail_ms": "ms", "latency_tail_pct": "pct", "runner.busy_frac": "ratio", "runner.tail_s": "s",
	"multicore.new_ms": "ms", "multicore.step_ms_p50": "ms", "multicore.step_ms_p95": "ms",
	"multicore.step_start_ms": "ms", "multicore.step_steady_ms": "ms",
	"multicore.us_per_busy_core_interval": "us", "multicore.intervals": "count",
	"multicore.tasks_completed": "count", "thermal.tiled_advance_us": "us",
	"gen.late_ms_p50": "ms", "gen.late_ms_p99": "ms", "http.rtt_ms_p50": "ms", "http.rtt_ms_p99": "ms",
	"pipethermd.cpu_us_per_req": "us", "service.cache_disk_hit_share": "ratio",
	"service.sim_ms": "ms", "service.miss_residue_ms": "ms", "journal.replay_records": "count",
	"service.queue_wait_ewma_ms": "ms", "service.result_kb": "KiB", "service.jobs_completed": "count",
	"service.jobs_retried": "count", "service.cache_hits": "count", "service.cache_misses": "count",
	"service.rejected_429": "count", "setup_runs": "count", "peak_rss_mb": "MB",
}

// env is one benchmark invocation.
type env struct {
	root, bin     string
	workload      string
	seed          uint64
	seconds       float64
	trace         bool
	traceFile     string
	runDir        string // scratch under .bench_build, removed at exit
	updateDigests bool
}

// report collects one run's metrics and check failures.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) put(name string, v float64) { r.values[name] = v }

// fail records a failed check: the run is then not correct.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the metric lines, the information lines, a flag when a
// traced run's layer spans leave more than 10% of the cell time
// unexplained, the failed checks, and last the JSON summary holding the
// gated (or, traced, the per-layer) metrics.
func (r *report) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	sum := summary{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	listed := map[string]bool{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			sum.Correct = false
			r.problems = append(r.problems, "metric "+d.name+" was not measured")
		}
		listed[d.name] = true
		fmt.Fprintf(w, "metric %-34s %16.6f %s\n", d.name, v, d.unit)
		sum.Metrics[d.name] = metricJSON{Value: finite(v), Unit: d.unit}
	}
	var info []string
	for name := range r.values {
		if !listed[name] && !isGated(name) {
			info = append(info, name)
		}
	}
	sort.Strings(info)
	for _, name := range info {
		fmt.Fprintf(w, "info   %-34s %16.6f %s\n", name, r.values[name], infoUnits[name])
	}
	if res := r.values["sim.residue_pct"]; traced && math.Abs(res) > 10 {
		fmt.Fprintf(w, "FLAG   sim.residue_pct %.1f%%: the layer spans do not add up to the untraced cell time\n", res)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED %s\n", p)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// isGated reports whether name is an end-to-end or per-layer metric, so a
// traced run does not repeat the end-to-end ones as information.
func isGated(name string) bool {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return true
		}
	}
	return false
}

// finite maps an unmeasurable value (all requests failed: +Inf) to the
// largest float, which JSON can carry; such a run is never correct.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

var workloads = map[string]func(*env, *report) error{
	"paper-matrix": runPaperMatrix,
	"multicore":    runMulticore,
	"service-hit":  runServiceHit,
	"service-miss": runServiceMiss,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "paper-matrix, multicore, service-hit or service-miss")
		seed      = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 15, "how long to measure")
		traced    = fs.Int("trace", 0, "1: record spans and report per-layer metrics")
		traceFile = fs.String("trace-file", "", "span file (default .bench_build/traces/WORKLOAD-sSEED.json)")
		root      = fs.String("root", ".", "repository root")
		bin       = fs.String("bin", ".bench_build/bin", "directory holding pipethermd and pipebench")
		update    = fs.Bool("update-digests", false, "pin this run's output digest in bench/testdata/digests.json")
		isChild   = fs.Bool("child", false, "run as the simulator program under test (internal)")
		job       = fs.String("job", "", "child job file (internal)")
		compare   = fs.Bool("compare", false, "compare two files of summary lines: -compare BASE HEAD")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case *isChild:
		return childMain(*job, stdout, stderr)
	case *compare:
		return compareMain(fs.Args(), *root, stdout, stderr)
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pipebench: need -workload (paper-matrix, multicore, service-hit, service-miss), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	for _, p := range []string{"go.mod", "internal/experiments/testdata", "bench/testdata/digests.json"} {
		if _, err := os.Stat(filepath.Join(*root, p)); err != nil {
			fmt.Fprintf(stderr, "pipebench: %s is not the repository root: %v\n", *root, err)
			return 2
		}
	}
	e := &env{
		root: *root, bin: *bin, workload: *workload, seed: *seed, seconds: *seconds,
		trace: *traced == 1, traceFile: *traceFile, updateDigests: *update,
	}
	if e.traceFile == "" {
		e.traceFile = filepath.Join(*root, ".bench_build", "traces", fmt.Sprintf("%s-s%d.json", e.workload, e.seed))
	}
	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return 1
	}
	runDir, err := os.MkdirTemp(scratch, "run-"+e.workload+"-")
	if err != nil {
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	e.runDir = runDir

	rep := newReport()
	if err := runWorkload(e, rep); err != nil {
		fmt.Fprintf(stderr, "pipebench: %s: %v\n", e.workload, err)
		return 1
	}
	if e.trace {
		fmt.Fprintf(stdout, "spans written to %s\n", e.traceFile)
	}
	if err := rep.print(stdout, e.trace); err != nil {
		fmt.Fprintf(stderr, "pipebench: %v\n", err)
		return 1
	}
	return 0
}
