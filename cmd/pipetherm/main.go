// Command pipetherm runs one benchmark under one configuration and prints
// a detailed report: IPC, thermal-management events, and per-block
// temperatures.
//
// Usage:
//
//	pipetherm [-bench eon] [-plan iq|alu|rf] [-cycles N]
//	          [-toggle] [-alu base|fgt|rr] [-rfmap priority|balanced|complete]
//	          [-rfturnoff] [-temps]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/config"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main; it returns the process exit code
// (2 for usage errors such as unknown names, 1 for runtime failures).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipetherm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "eon", "benchmark name (SPEC2000 subset)")
		planName  = fs.String("plan", "iq", "floorplan variant: iq, alu, or rf")
		cycles    = fs.Int64("cycles", 4_000_000, "run length in cycles")
		toggle    = fs.Bool("toggle", false, "enable issue-queue activity toggling")
		aluPolicy = fs.String("alu", "base", "ALU policy: base, fgt, or rr")
		rfMap     = fs.String("rfmap", "priority", "register-file mapping: priority, balanced, complete")
		rfTurnoff = fs.Bool("rfturnoff", false, "enable register-file copy turnoff")
		showTemps = fs.Bool("temps", false, "print per-block temperatures")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pipetherm: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	cfg := config.Default()
	switch *planName {
	case "iq":
		cfg.Plan = config.PlanIQConstrained
	case "alu":
		cfg.Plan = config.PlanALUConstrained
	case "rf":
		cfg.Plan = config.PlanRFConstrained
	default:
		fmt.Fprintf(stderr, "pipetherm: unknown plan %q (valid: iq, alu, rf)\n", *planName)
		return 2
	}
	if *toggle {
		cfg.Techniques.IQ = config.IQToggle
	}
	switch *aluPolicy {
	case "base":
	case "fgt":
		cfg.Techniques.ALU = config.ALUFineGrain
	case "rr":
		cfg.Techniques.ALU = config.ALURoundRobin
	default:
		fmt.Fprintf(stderr, "pipetherm: unknown ALU policy %q (valid: base, fgt, rr)\n", *aluPolicy)
		return 2
	}
	switch *rfMap {
	case "priority":
		cfg.Techniques.RFMap = config.MapPriority
	case "balanced":
		cfg.Techniques.RFMap = config.MapBalanced
	case "complete":
		cfg.Techniques.RFMap = config.MapCompletelyBalanced
	default:
		fmt.Fprintf(stderr, "pipetherm: unknown register-file mapping %q (valid: priority, balanced, complete)\n", *rfMap)
		return 2
	}
	cfg.Techniques.RFTurnoff = *rfTurnoff

	s, err := sim.NewByName(cfg, *bench)
	if err != nil {
		fmt.Fprintf(stderr, "pipetherm: %v\n", err)
		return 2
	}
	r := s.RunCycles(*cycles)
	if *showTemps {
		fmt.Fprint(stdout, r.Report())
	} else {
		fmt.Fprint(stdout, r.Summary())
	}
	return 0
}
