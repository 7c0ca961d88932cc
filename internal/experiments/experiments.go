// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each experiment is a matrix of benchmark × technique
// runs on the floorplan variant the paper uses for it:
//
//	Table 4 / Figure 6 — issue-queue-constrained CPU, activity toggling
//	Table 5 / Figure 7 — ALU-constrained CPU, fine-grain turnoff and the
//	                     idealized round-robin bound
//	Table 6 / Figure 8 — register-file-constrained CPU, the four
//	                     mapping × turnoff combinations
//
// Tables 1-3 are static (mapping symmetry, processor parameters, circuit
// energies) and are printed from their source packages.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultCycles is the default per-run length. With the default thermal
// acceleration it covers roughly the same heating history as the paper's
// 500 M-instruction windows (~120 ms at 4.2 GHz).
const DefaultCycles = 4_000_000

// Variant names one technique configuration within an experiment.
type Variant struct {
	Name string
	Tech config.Techniques
}

// Spec describes one experiment's run matrix.
type Spec struct {
	ID         string
	Title      string
	Plan       config.FloorplanVariant
	Variants   []Variant
	Benchmarks []string // empty = all 22
	Cycles     int64
	// Warmup overrides the simulator's architectural warmup when
	// positive (tests use small values).
	Warmup int
	// Parallelism is the worker count for the matrix run: 0 = auto (one
	// worker per CPU, capped at the cell count), 1 = the legacy serial
	// path, n > 1 = at most n workers. Every cell builds its own
	// simulator and owns its result slot; the one thing cells share, their
	// benchmark's read-only warm state, is the same whichever cell builds
	// it. So the assembled Matrix — cell ordering included — is
	// byte-identical at every setting; only wall-clock time and
	// progress-line interleaving change.
	Parallelism int
}

// Cell is one completed run.
type Cell struct {
	Benchmark string
	Variant   string
	R         *sim.Result
}

// Matrix holds all cells of one experiment, indexable by (benchmark,
// variant).
type Matrix struct {
	Spec  Spec
	Cells []Cell
}

// Get returns the result for (benchmark, variant), or nil.
func (m *Matrix) Get(bench, variant string) *sim.Result {
	for _, c := range m.Cells {
		if c.Benchmark == bench && c.Variant == variant {
			return c.R
		}
	}
	return nil
}

// Benchmarks returns the benchmark list the matrix ran (sorted).
func (m *Matrix) Benchmarks() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range m.Cells {
		if !seen[c.Benchmark] {
			seen[c.Benchmark] = true
			out = append(out, c.Benchmark)
		}
	}
	sort.Strings(out)
	return out
}

// AllBenchmarks returns the 22 SPEC2000 benchmark names.
func AllBenchmarks() []string {
	ps := trace.Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Run executes the experiment matrix on spec.Parallelism workers,
// reporting progress to w (may be nil). Every cell constructs its own
// simulator and writes into a slot pre-assigned from the serial
// iteration order, so Matrix.Cells is byte-identical to a serial run at
// any parallelism; progress lines are serialized but arrive in
// completion order. The first cell-construction error cancels the
// outstanding jobs and is returned after in-flight cells drain.
//
// A benchmark's variants differ only in back-end policy, so they warm
// to the same architectural state: Run builds it once per benchmark and
// every variant loads a copy (sim.Simulator.ShareWarmup), which leaves
// each cell bit-identical to one that warms itself.
//
// Cancelling ctx aborts the matrix: pending cells are skipped, each
// in-flight cell stops at its next sensor interval, and Run returns
// ctx's error. A never-cancelled ctx leaves the output bit-identical to
// the pre-context behaviour.
func Run(ctx context.Context, spec Spec, w io.Writer) (*Matrix, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Cycles <= 0 {
		spec.Cycles = DefaultCycles
	}
	benches := spec.Benchmarks
	if len(benches) == 0 {
		benches = AllBenchmarks()
	}
	nv := len(spec.Variants)
	total := len(benches) * nv
	m := &Matrix{Spec: spec}
	if total == 0 {
		return m, nil
	}
	m.Cells = make([]Cell, total)
	var warms []sharedWarm // per benchmark; nil when there is nothing to share
	if nv >= 2 {
		warms = make([]sharedWarm, len(benches))
		for i := range warms {
			warms[i].left.Store(int32(nv))
		}
	}
	prog := runner.NewProgress(w, total)
	err := runner.Run(ctx, spec.Parallelism, total, func(i int) error {
		b, v := benches[i/nv], spec.Variants[i%nv]
		cfg := config.Default()
		cfg.Plan = spec.Plan
		cfg.Techniques = v.Tech
		s, err := sim.NewByName(cfg, b)
		if err != nil {
			return fmt.Errorf("experiments: %s/%s: %w", b, v.Name, err)
		}
		s.WarmupInstructions = spec.Warmup
		if warms != nil {
			s.ShareWarmup(warms[i/nv].take(s))
		}
		r, err := s.RunCyclesContext(ctx, spec.Cycles)
		if err != nil {
			return fmt.Errorf("experiments: %s/%s: %w", b, v.Name, err)
		}
		m.Cells[i] = Cell{Benchmark: b, Variant: v.Name, R: r}
		prog.Step("%s %-9s %-24s IPC=%.3f stalls=%d", spec.ID, b, v.Name, r.IPC, r.Stalls)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// sharedWarm is one benchmark's warm state, shared by its variants. The
// first variant to start builds it and the others wait for it. left
// counts the variants yet to take it; the last one drops the matrix's
// reference, so the state is freed once every variant has installed it.
type sharedWarm struct {
	once sync.Once
	ws   *pipeline.WarmState
	left atomic.Int32
}

// take returns the benchmark's warm state, building it on s on first use.
func (w *sharedWarm) take(s *sim.Simulator) *pipeline.WarmState {
	w.once.Do(func() { w.ws = s.WarmState() })
	ws := w.ws
	if w.left.Add(-1) == 0 {
		w.ws = nil
	}
	return ws
}

// ByID returns the named experiment's Spec — the registry the service
// batch API and cmd/experiments share. benchmarks applies only to the
// figure-style experiments; the tables pin the paper's benchmark sets.
func ByID(id string, cycles int64, benchmarks ...string) (Spec, error) {
	switch id {
	case "fig6":
		return Fig6(cycles, benchmarks...), nil
	case "fig7":
		return Fig7(cycles, benchmarks...), nil
	case "fig8":
		return Fig8(cycles, benchmarks...), nil
	case "table4":
		return Table4(cycles), nil
	case "table5":
		return Table5(cycles), nil
	case "table6":
		return Table6(cycles), nil
	case "temporal":
		return Temporal(cycles, benchmarks...), nil
	}
	return Spec{}, fmt.Errorf("experiments: unknown experiment %q (valid: fig6 fig7 fig8 table4 table5 table6 temporal)", id)
}

// --- Experiment specs -----------------------------------------------------

// Fig6 is the issue-queue experiment: base vs activity toggling.
func Fig6(cycles int64, benchmarks ...string) Spec {
	return Spec{
		ID:    "fig6",
		Title: "Issue-queue constrained IPC with and without activity-toggling (Figure 6)",
		Plan:  config.PlanIQConstrained,
		Variants: []Variant{
			{Name: "base", Tech: config.Techniques{}},
			{Name: "activity-toggling", Tech: config.Techniques{IQ: config.IQToggle}},
		},
		Benchmarks: benchmarks,
		Cycles:     cycles,
	}
}

// Table4 is the issue-queue half-temperature table (art, facerec, mesa).
func Table4(cycles int64) Spec {
	s := Fig6(cycles, "art", "facerec", "mesa")
	s.ID = "table4"
	s.Title = "Average temperature of issue-queue halves (Table 4)"
	return s
}

// Fig7 is the ALU experiment: base vs fine-grain turnoff vs round-robin.
func Fig7(cycles int64, benchmarks ...string) Spec {
	return Spec{
		ID:    "fig7",
		Title: "ALU-constrained IPC (Figure 7)",
		Plan:  config.PlanALUConstrained,
		Variants: []Variant{
			{Name: "base", Tech: config.Techniques{}},
			{Name: "fine-grain-turnoff", Tech: config.Techniques{ALU: config.ALUFineGrain}},
			{Name: "round-robin", Tech: config.Techniques{ALU: config.ALURoundRobin}},
		},
		Benchmarks: benchmarks,
		Cycles:     cycles,
	}
}

// Table5 is the per-ALU temperature table (parser, perlbmk).
func Table5(cycles int64) Spec {
	s := Fig7(cycles, "parser", "perlbmk")
	s.ID = "table5"
	s.Title = "Average integer ALU temperatures (Table 5)"
	return s
}

// Fig8 is the register-file experiment: the four mapping × turnoff
// combinations.
func Fig8(cycles int64, benchmarks ...string) Spec {
	return Spec{
		ID:    "fig8",
		Title: "Register-file constrained IPC (Figure 8)",
		Plan:  config.PlanRFConstrained,
		Variants: []Variant{
			{Name: "fgt+priority", Tech: config.Techniques{RFMap: config.MapPriority, RFTurnoff: true}},
			{Name: "fgt+balanced", Tech: config.Techniques{RFMap: config.MapBalanced, RFTurnoff: true}},
			{Name: "balanced-only", Tech: config.Techniques{RFMap: config.MapBalanced}},
			{Name: "priority-only", Tech: config.Techniques{RFMap: config.MapPriority}},
		},
		Benchmarks: benchmarks,
		Cycles:     cycles,
	}
}

// Temporal compares the temporal fallbacks the paper discusses in §5 —
// Pentium-4-style stop-go versus DVFS — with and without activity
// toggling, on the issue-queue-constrained machine. This extends the
// paper's evaluation: it quantifies how much of the temporal technique's
// use each spatial technique removes.
func Temporal(cycles int64, benchmarks ...string) Spec {
	return Spec{
		ID:    "temporal",
		Title: "Temporal fallbacks (stop-go vs DVFS) with and without activity toggling",
		Plan:  config.PlanIQConstrained,
		Variants: []Variant{
			{Name: "stop-go", Tech: config.Techniques{Temporal: config.TemporalStopGo}},
			{Name: "dvfs", Tech: config.Techniques{Temporal: config.TemporalDVFS}},
			{Name: "stop-go+toggling", Tech: config.Techniques{IQ: config.IQToggle}},
			{Name: "dvfs+toggling", Tech: config.Techniques{IQ: config.IQToggle, Temporal: config.TemporalDVFS}},
		},
		Benchmarks: benchmarks,
		Cycles:     cycles,
	}
}

// Combined applies all three spatial techniques at once on each floorplan
// variant — the composition the paper says "would be possible" but does
// not evaluate (§4, first paragraph).
func Combined(cycles int64, plan config.FloorplanVariant, benchmarks ...string) Spec {
	all := config.Techniques{
		IQ:        config.IQToggle,
		ALU:       config.ALUFineGrain,
		RFMap:     config.MapPriority,
		RFTurnoff: true,
	}
	return Spec{
		ID:    "combined",
		Title: fmt.Sprintf("All three techniques combined (%v)", plan),
		Plan:  plan,
		Variants: []Variant{
			{Name: "base", Tech: config.Techniques{}},
			{Name: "all-techniques", Tech: all},
		},
		Benchmarks: benchmarks,
		Cycles:     cycles,
	}
}

// Table6 is the register-file copy-temperature table (eon).
func Table6(cycles int64) Spec {
	s := Fig8(cycles, "eon")
	s.ID = "table6"
	s.Title = "Average register-file copy temperature for eon (Table 6)"
	return s
}

// --- Reports ---------------------------------------------------------------

// Speedup returns variant-a-over-variant-b IPC speedup for a benchmark.
func (m *Matrix) Speedup(bench, a, b string) float64 {
	ra, rb := m.Get(bench, a), m.Get(bench, b)
	if ra == nil || rb == nil || rb.IPC == 0 {
		return 0
	}
	return ra.IPC/rb.IPC - 1
}

// MeanSpeedup averages the a-over-b speedup across benchmarks; if
// constrainedOnly is set, only benchmarks where either variant stalled are
// included. Returns the mean and the benchmark count.
func (m *Matrix) MeanSpeedup(a, b string, constrainedOnly bool) (float64, int) {
	sum, n := 0.0, 0
	for _, bench := range m.Benchmarks() {
		if constrainedOnly {
			ra, rb := m.Get(bench, a), m.Get(bench, b)
			if ra == nil || rb == nil || (ra.Stalls == 0 && rb.Stalls == 0 &&
				ra.ALUTurnoffs == 0 && rb.ALUTurnoffs == 0 &&
				ra.RFCopyTurnoffs == 0 && rb.RFCopyTurnoffs == 0) {
				continue
			}
		}
		sum += m.Speedup(bench, a, b)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// FigureReport renders a Figure 6/7/8-style IPC table plus speedup
// summary lines between the first variant pairs.
func (m *Matrix) FigureReport() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", m.Spec.Title)
	fmt.Fprintf(&sb, "%-10s", "benchmark")
	for _, v := range m.Spec.Variants {
		fmt.Fprintf(&sb, " %18s", v.Name)
	}
	fmt.Fprintf(&sb, " %12s\n", "events")
	for _, b := range m.Benchmarks() {
		fmt.Fprintf(&sb, "%-10s", b)
		var ev string
		for _, v := range m.Spec.Variants {
			r := m.Get(b, v.Name)
			if r == nil {
				fmt.Fprintf(&sb, " %18s", "-")
				continue
			}
			fmt.Fprintf(&sb, " %12.3f (%2ds)", r.IPC, r.Stalls)
			switch {
			case r.IntToggles+r.FPToggles > 0:
				ev = fmt.Sprintf("%d toggles", r.IntToggles+r.FPToggles)
			case r.ALUTurnoffs > 0:
				ev = fmt.Sprintf("%d turnoffs", r.ALUTurnoffs)
			case r.RFCopyTurnoffs > 0:
				ev = fmt.Sprintf("%d rf-offs", r.RFCopyTurnoffs)
			}
		}
		fmt.Fprintf(&sb, " %12s\n", ev)
	}
	// Pairwise speedups of every other variant over the baseline: the
	// variant literally named "base" when present (Figures 6 and 7),
	// else the last variant (Figure 8's priority-only, matching the
	// paper's comparison order).
	baseName := m.Spec.Variants[len(m.Spec.Variants)-1].Name
	for _, v := range m.Spec.Variants {
		if v.Name == "base" {
			baseName = v.Name
		}
	}
	for _, v := range m.Spec.Variants {
		if v.Name == baseName {
			continue
		}
		all, _ := m.MeanSpeedup(v.Name, baseName, false)
		con, n := m.MeanSpeedup(v.Name, baseName, true)
		fmt.Fprintf(&sb, "speedup %s over %s: %+.1f%% (all), %+.1f%% (constrained, n=%d)\n",
			v.Name, baseName, all*100, con*100, n)
	}
	return sb.String()
}

// UtilizationReport renders the per-cell resource-utilization telemetry
// derived from the event-count stats bus: issue-queue half occupancy,
// per-ALU grant shares, and per-RF-copy read shares. It is the detail
// view behind `experiments -detail` — the imbalances it shows are the
// mechanism the paper's techniques attack (Tables 4-6).
func (m *Matrix) UtilizationReport() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — utilization detail\n", m.Spec.Title)
	fmt.Fprintf(&sb, "%-10s %-20s %17s %17s  %-28s %s\n",
		"benchmark", "technique", "IQ occ (t/h)", "FPQ occ (t/h)", "ALU grant shares", "RF read shares")
	shareList := func(s []float64) string {
		parts := make([]string, len(s))
		for i, v := range s {
			parts[i] = fmt.Sprintf("%.2f", v)
		}
		return strings.Join(parts, " ")
	}
	for _, b := range m.Benchmarks() {
		for _, v := range m.Spec.Variants {
			r := m.Get(b, v.Name)
			if r == nil {
				continue
			}
			u := r.Utilization
			fmt.Fprintf(&sb, "%-10s %-20s %8.2f/%8.2f %8.2f/%8.2f  %-28s %s\n",
				b, v.Name,
				u.IntQHalfOcc[1], u.IntQHalfOcc[0],
				u.FPQHalfOcc[1], u.FPQHalfOcc[0],
				shareList(u.ALUGrantShare), shareList(u.RFReadShare))
		}
	}
	return sb.String()
}

// Report renders the matrix in the presentation the paper uses for its
// experiment ID: the table renderers for table4/5/6, the figure report
// for everything else.
func (m *Matrix) Report() string {
	switch m.Spec.ID {
	case "table4":
		return m.Table4Report()
	case "table5":
		return m.Table5Report()
	case "table6":
		return m.Table6Report()
	}
	return m.FigureReport()
}

// avgTemp reads a block's average temperature for a report table; a block
// the result does not carry renders as 0 rather than aborting the report.
func avgTemp(r *sim.Result, block string) float64 {
	t, _ := r.AvgTemp(block)
	return t
}

// Table4Report renders the paper's Table 4: average temperatures of the
// integer issue-queue halves under base and toggling.
func (m *Matrix) Table4Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", m.Spec.Title)
	fmt.Fprintf(&sb, "%-10s %-20s %9s %9s\n", "benchmark", "technique", "tail (K)", "head (K)")
	for _, b := range m.Benchmarks() {
		for _, v := range []string{"activity-toggling", "base"} {
			r := m.Get(b, v)
			if r == nil {
				continue
			}
			// Physical half 1 is the tail region in the conventional
			// configuration.
			fmt.Fprintf(&sb, "%-10s %-20s %9.1f %9.1f\n",
				b, v, avgTemp(r, "IntQ1"), avgTemp(r, "IntQ0"))
		}
	}
	return sb.String()
}

// Table5Report renders the paper's Table 5: IPC and average per-ALU
// temperatures for each technique.
func (m *Matrix) Table5Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", m.Spec.Title)
	fmt.Fprintf(&sb, "%-10s %-20s %5s", "benchmark", "technique", "IPC")
	for u := 0; u < 6; u++ {
		fmt.Fprintf(&sb, "  ALU%d(K)", u)
	}
	fmt.Fprintln(&sb)
	order := []string{"round-robin", "fine-grain-turnoff", "base"}
	for _, b := range m.Benchmarks() {
		for _, v := range order {
			r := m.Get(b, v)
			if r == nil {
				continue
			}
			fmt.Fprintf(&sb, "%-10s %-20s %5.1f", b, v, r.IPC)
			for u := 0; u < 6; u++ {
				fmt.Fprintf(&sb, "  %7.1f", avgTemp(r, floorplan.IntExec(u)))
			}
			fmt.Fprintln(&sb)
		}
	}
	return sb.String()
}

// Table6Report renders the paper's Table 6: IPC, register-file copy
// temperatures and turnoff counts per configuration.
func (m *Matrix) Table6Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", m.Spec.Title)
	fmt.Fprintf(&sb, "%-10s %-16s %5s %10s %10s %10s\n",
		"benchmark", "technique", "IPC", "copy0 (K)", "copy1 (K)", "turnoffs")
	for _, b := range m.Benchmarks() {
		for _, v := range m.Spec.Variants {
			r := m.Get(b, v.Name)
			if r == nil {
				continue
			}
			off := uint64(0)
			for _, n := range r.RFTurnoffsPerCopy {
				off += n
			}
			fmt.Fprintf(&sb, "%-10s %-16s %5.1f %10.1f %10.1f %10d\n",
				b, v.Name, r.IPC, avgTemp(r, "IntReg0"), avgTemp(r, "IntReg1"), off)
		}
	}
	return sb.String()
}

// BarChart renders the matrix as a horizontal bar chart, one group of bars
// per benchmark (one bar per variant), mimicking the paper's Figure 6/7/8
// presentation. width is the maximum bar length in characters.
func (m *Matrix) BarChart(width int) string {
	if width <= 0 {
		width = 50
	}
	maxIPC := 0.0
	for _, c := range m.Cells {
		if c.R.IPC > maxIPC {
			maxIPC = c.R.IPC
		}
	}
	if maxIPC == 0 {
		return "(no data)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\nIPC, 0 to %.2f\n", m.Spec.Title, maxIPC)
	marks := []byte{'#', '=', '-', '.'}
	for _, b := range m.Benchmarks() {
		fmt.Fprintf(&sb, "%s\n", b)
		for vi, v := range m.Spec.Variants {
			r := m.Get(b, v.Name)
			if r == nil {
				continue
			}
			n := int(r.IPC / maxIPC * float64(width))
			mark := marks[vi%len(marks)]
			fmt.Fprintf(&sb, "  %-18s |%s %.2f\n", v.Name, strings.Repeat(string(mark), n), r.IPC)
		}
	}
	fmt.Fprintf(&sb, "legend:")
	for vi, v := range m.Spec.Variants {
		fmt.Fprintf(&sb, " %c=%s", marks[vi%len(marks)], v.Name)
	}
	fmt.Fprintln(&sb)
	return sb.String()
}
