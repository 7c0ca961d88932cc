// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-cycles N] [-benchmarks a,b,c] [-parallel N]
//	            [-detail] [-cores N] [-scheduler a,b]
//	            [-cpuprofile FILE] [-memprofile FILE]
//	            [table1|table2|table3|table4|table5|table6|fig6|fig7|fig8|all|multicore]...
//
// Each matrix's benchmark × technique cells are independent runs; they
// are fanned out over -parallel workers (0 = one per CPU, 1 = serial).
// The assembled tables and figures are byte-identical at any setting —
// only the interleaving of progress lines changes.
//
// Every matrix runs in process through experiments.Run. For results
// cached across invocations, submit the experiment to a pipethermd
// daemon instead (POST /v1/jobs {"experiment":...}, then
// GET /v1/jobs/{key}/report): it renders the same report for table4,
// table5, table6, fig6, fig7, fig8 and temporal. combined and multicore
// run only here.
//
// Three extension experiments beyond the paper's evaluation run when
// named explicitly: "temporal" (stop-go vs DVFS fallbacks), "combined"
// (all three spatial techniques at once, on each floorplan), and
// "multicore" (task-to-core scheduling policies on a shared tiled die;
// see -cores and -scheduler).
//
// Each experiment runs its benchmark × technique matrix on the floorplan
// variant the paper uses and prints the corresponding table or figure
// data. Runs are deterministic; see EXPERIMENTS.md for reference output.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/multicore"
	"repro/internal/power"
	"repro/internal/regfile"
	"repro/internal/trace"
)

// runOrder is the canonical output order; the paper interleaves tables
// and figures this way. The "all" alias covers everything up to fig8;
// the two extensions run only when named explicitly.
var runOrder = []string{"table1", "table2", "table3", "table4", "fig6", "table5", "fig7", "table6", "fig8", "temporal", "combined", "multicore"}

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main; it returns the process exit code
// (2 for usage errors, 1 for runtime failures).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cycles = fs.Int64("cycles", experiments.DefaultCycles,
			"cycles per run (default covers ~120ms of accelerated thermal time)")
		benchList = fs.String("benchmarks", "",
			"comma-separated benchmark subset for fig6/fig7/fig8 (default: all 22)")
		quiet    = fs.Bool("quiet", false, "suppress per-run progress")
		bars     = fs.Bool("bars", false, "also render figures as ASCII bar charts")
		parallel = fs.Int("parallel", 0, "matrix workers (0 = one per CPU, 1 = serial)")
		detail   = fs.Bool("detail", false,
			"append per-cell utilization telemetry (issue-queue half occupancy, ALU grant shares, RF read shares) after each matrix")
		cores = fs.Int("cores", 4,
			"core count for the multicore experiment (tiled onto a shared die)")
		schedList = fs.String("scheduler", "",
			"comma-separated scheduler subset for the multicore experiment: roundrobin, random, coolest-first, threshold-migrate (default: all four)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to FILE")
		memprofile = fs.String("memprofile", "", "write a heap profile to FILE on exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
			}
		}()
	}

	// Validate everything before simulating anything: a typo should
	// fail fast, not after an hour of matrix runs.
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	ids := map[string]bool{}
	for _, a := range names {
		if a == "all" {
			for _, id := range runOrder[:9] {
				ids[id] = true
			}
			continue
		}
		if !known(a) {
			fmt.Fprintf(stderr, "experiments: unknown experiment %q (known: %s, all)\n", a, strings.Join(runOrder, ", "))
			return 2
		}
		ids[a] = true
	}
	var benches []string
	if *benchList != "" {
		benches = strings.Split(*benchList, ",")
		for _, b := range benches {
			if _, err := trace.ByName(b); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 2
			}
		}
	}
	var scheds []config.Scheduler
	if *schedList != "" {
		for _, name := range strings.Split(*schedList, ",") {
			var sch config.Scheduler
			if err := sch.UnmarshalText([]byte(strings.TrimSpace(name))); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 2
			}
			scheds = append(scheds, sch)
		}
	}
	if ids["multicore"] {
		if err := (multicore.Params{Cores: *cores}).Normalized().Validate(); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 2
		}
	}

	var progress io.Writer
	if !*quiet {
		progress = stderr
	}

	runAndPrint := func(spec experiments.Spec, render func(*experiments.Matrix) string) error {
		spec.Parallelism = *parallel
		m, err := experiments.Run(ctx, spec, progress)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, render(m))
		if *bars && strings.HasPrefix(spec.ID, "fig") {
			fmt.Fprintln(stdout, m.BarChart(56))
		}
		if *detail {
			fmt.Fprintln(stdout, m.UtilizationReport())
		}
		return nil
	}

	for _, id := range runOrder {
		if !ids[id] {
			continue
		}
		var err error
		switch id {
		case "table1":
			printTable1(stdout)
		case "table2":
			printTable2(stdout)
		case "table3":
			printTable3(stdout)
		case "table4":
			err = runAndPrint(experiments.Table4(*cycles), (*experiments.Matrix).Table4Report)
		case "fig6":
			err = runAndPrint(experiments.Fig6(*cycles, benches...), (*experiments.Matrix).FigureReport)
		case "table5":
			err = runAndPrint(experiments.Table5(*cycles), (*experiments.Matrix).Table5Report)
		case "fig7":
			err = runAndPrint(experiments.Fig7(*cycles, benches...), (*experiments.Matrix).FigureReport)
		case "table6":
			err = runAndPrint(experiments.Table6(*cycles), (*experiments.Matrix).Table6Report)
		case "fig8":
			err = runAndPrint(experiments.Fig8(*cycles, benches...), (*experiments.Matrix).FigureReport)
		case "temporal":
			err = runAndPrint(experiments.Temporal(*cycles, benches...), (*experiments.Matrix).FigureReport)
		case "combined":
			for _, plan := range []config.FloorplanVariant{
				config.PlanIQConstrained, config.PlanALUConstrained, config.PlanRFConstrained,
			} {
				if err = runAndPrint(experiments.Combined(*cycles, plan, benches...), (*experiments.Matrix).FigureReport); err != nil {
					break
				}
			}
		case "multicore":
			spec := experiments.Multicore(*cycles, *cores, scheds...)
			spec.Parallelism = *parallel
			var mm *experiments.MulticoreMatrix
			if mm, err = experiments.RunMulticore(ctx, spec, progress); err == nil {
				fmt.Fprintln(stdout, mm.Report())
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
	}
	return 0
}

func known(id string) bool {
	for _, k := range runOrder {
		if id == k {
			return true
		}
	}
	return false
}

func printTable1(w io.Writer) {
	fmt.Fprintln(w, "Register-port mappings (Table 1)")
	fmt.Fprintf(w, "%-20s %-45s %-45s\n", "power-density", "balanced mapping", "priority mapping")
	for _, r := range regfile.Table1() {
		fmt.Fprintf(w, "%-20s %-45s %-45s\n", r.PowerDensity, r.Balanced, r.Priority)
	}
	fmt.Fprintln(w)
}

func printTable2(w io.Writer) {
	c := config.Default()
	fmt.Fprintln(w, "Processor parameters (Table 2)")
	rows := [][2]string{
		{"Out-of-order issue", fmt.Sprintf("%d instructions/cycle", c.IssueWidth)},
		{"Active list", fmt.Sprintf("%d entries (%d-entry LSQ)", c.ActiveList, c.LSQEntries)},
		{"Issue queue", fmt.Sprintf("%d-entries each Int and FP", c.IQEntries)},
		{"Caches", fmt.Sprintf("%dKB %d-way %d-cycle L1s (%d ports); %dM %d-way unified L2",
			c.L1SizeKB, c.L1Assoc, c.L1Latency, c.L1Ports, c.L2SizeKB/1024, c.L2Assoc)},
		{"Memory", fmt.Sprintf("%d cycles", c.MemLatency)},
		{"Heatsink thickness", fmt.Sprintf("%.1f mm", c.HeatsinkThicknessMM)},
		{"Convection resistance", fmt.Sprintf("%.1f K/W", c.ConvectionRes)},
		{"Thermal cooling time", fmt.Sprintf("%.0f ms", c.CoolingTimeMS)},
		{"Maximum temperature", fmt.Sprintf("%.0f K", c.MaxTempK)},
		{"Frequency, voltage, technology", fmt.Sprintf("%.1f GHz; %.1fV; %dnm",
			c.FrequencyGHz, c.VddVolts, c.TechnologyNM)},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-32s %s\n", r[0], r[1])
	}
	fmt.Fprintln(w)
}

func printTable3(w io.Writer) {
	fmt.Fprintln(w, "Issue energy by component, nJ (Table 3)")
	for _, r := range power.Table3() {
		fmt.Fprintf(w, "  %-28s (%s) %7.4f\n", r.Component, r.Unit, r.NanoJ)
	}
	fmt.Fprintln(w)
}
