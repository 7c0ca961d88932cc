// Command calibrate prints, for every benchmark on a chosen floorplan
// variant, the steady-state temperature each monitored block would reach
// under the benchmark's measured average power. This is the tool used to
// calibrate the floorplan area scaling and workload intensities (see
// DESIGN.md): the paper's methodology places the constrained resource's
// hottest copy just above the 358 K threshold for the high-utilization
// benchmarks and safely below it for the memory-bound ones.
//
// Per-benchmark probes are independent (each builds its own pipeline and
// thermal network) and are fanned out over -parallel workers; rows are
// printed in benchmark order regardless of completion order.
//
// Usage:
//
//	calibrate [-plan iq|alu|rf] [-cycles N] [-warmup N] [-blocks a,b,c] [-parallel N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/config"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/runner"
	"repro/internal/thermal"
	"repro/internal/trace"
)

func main() {
	planName := flag.String("plan", "iq", "floorplan variant: iq, alu, or rf")
	cycles := flag.Int("cycles", 1_000_000, "measurement window in cycles")
	warmup := flag.Int("warmup", 3_000_000, "architectural warmup in instructions")
	blockList := flag.String("blocks", "", "comma-separated blocks to report (default: a per-plan set)")
	parallel := flag.Int("parallel", 0, "probe workers (0 = one per CPU, 1 = serial)")
	flag.Parse()

	cfg := config.Default()
	switch *planName {
	case "iq":
		cfg.Plan = config.PlanIQConstrained
	case "alu":
		cfg.Plan = config.PlanALUConstrained
	case "rf":
		cfg.Plan = config.PlanRFConstrained
	default:
		fmt.Fprintf(os.Stderr, "unknown plan %q\n", *planName)
		os.Exit(2)
	}

	var blocks []string
	if *blockList != "" {
		blocks = strings.Split(*blockList, ",")
	} else {
		switch cfg.Plan {
		case config.PlanALUConstrained:
			blocks = []string{"IntExec0", "IntExec1", "IntExec5", "FPAdd0", "FPAdd3", floorplan.FPReg}
		case config.PlanRFConstrained:
			blocks = []string{floorplan.IntReg0, floorplan.IntReg1, "IntExec0", floorplan.IntQ1, floorplan.FPReg}
		default:
			blocks = []string{floorplan.IntQ0, floorplan.IntQ1, floorplan.FPQ0, floorplan.FPQ1, floorplan.IntReg0, floorplan.FPReg}
		}
	}

	fmt.Printf("steady-state temperatures on the %v floorplan (threshold %.0f K)\n\n", cfg.Plan, cfg.MaxTempK)
	fmt.Printf("%-10s %5s %6s", "benchmark", "IPC", "chipW")
	for _, b := range blocks {
		fmt.Printf(" %8s", b)
	}
	fmt.Println()

	// One steady-state probe per benchmark, each with its own pipeline
	// and thermal network; rows land in pre-indexed slots so the printed
	// table keeps benchmark order at any parallelism.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	profiles := trace.Profiles()
	rows := make([]string, len(profiles))
	err := runner.Run(ctx, *parallel, len(profiles), func(i int) error {
		prof := profiles[i]
		pcfg := cfg.Clone() // no shared pointers between workers
		plan := floorplan.Build(pcfg.Plan)
		meter := power.NewMeter(plan, pcfg)
		p, err := pipeline.New(pcfg, plan, meter, trace.NewGenerator(prof))
		if err != nil {
			return err
		}
		th := thermal.New(plan, pcfg)
		p.Warmup(*warmup)
		for c := 0; c < *cycles; c++ {
			p.Cycle()
		}
		pow := meter.Drain(*cycles, 0, nil)
		ss := th.SteadyState(pow)
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-10s %5.2f %6.1f", prof.Name, p.IPC(), meter.AvgChipPower())
		for _, b := range blocks {
			mark := " "
			t := ss[plan.Index(b)]
			if t >= pcfg.MaxTempK {
				mark = "*"
			}
			fmt.Fprintf(&sb, " %7.1f%s", t, mark)
		}
		rows[i] = sb.String()
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	for _, row := range rows {
		fmt.Println(row)
	}
	fmt.Println("\n(*) at or above the critical threshold under sustained average power")
}
