// ALU turnoff: reproduce the §4.2 scenario on the ALU-constrained
// floorplan. The static select-tree priority concentrates work on ALU0,
// which overheats; the baseline stalls the whole core, fine-grain turnoff
// marks the hot ALU busy and keeps executing on the cool ones, and
// round-robin (the idealized bound) spreads work evenly so nothing ever
// overheats.
//
//	go run ./examples/alu_turnoff [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/config"
	"repro/internal/floorplan"
	"repro/internal/sim"
)

func main() {
	benchmark := "perlbmk" // the paper's ALU-constrained example
	if len(os.Args) > 1 {
		benchmark = os.Args[1]
	}
	const cycles = 4_000_000

	policies := []struct {
		name string
		alu  config.ALUPolicy
	}{
		{"base (stall on hot ALU)", config.ALUBase},
		{"fine-grain turnoff", config.ALUFineGrain},
		{"round-robin (ideal)", config.ALURoundRobin},
	}

	fmt.Printf("benchmark: %s on the ALU-constrained floorplan\n\n", benchmark)
	fmt.Printf("%-26s %6s %7s %9s  %s\n", "policy", "IPC", "stalls", "turnoffs", "per-ALU avg temps (K)")
	var baseIPC float64
	for _, p := range policies {
		cfg := config.Default()
		cfg.Plan = config.PlanALUConstrained
		cfg.Techniques.ALU = p.alu
		s, err := sim.NewByName(cfg, benchmark)
		if err != nil {
			log.Fatal(err)
		}
		r := s.RunCycles(cycles)
		if p.alu == config.ALUBase {
			baseIPC = r.IPC
		}
		fmt.Printf("%-26s %6.2f %7d %9d  ", p.name, r.IPC, r.Stalls, r.ALUTurnoffs)
		for u := 0; u < cfg.IntALUs; u++ {
			t, _ := r.AvgTemp(floorplan.IntExec(u))
			fmt.Printf("%6.1f", t)
		}
		if p.alu != config.ALUBase && baseIPC > 0 {
			fmt.Printf("   (%+.0f%% vs base)", (r.IPC/baseIPC-1)*100)
		}
		fmt.Println()
	}
	fmt.Println("\nNote the paper's §4.2 signature: fine-grain turnoff runs its hot")
	fmt.Println("ALUs *hotter* than the base (it tolerates them instead of stalling),")
	fmt.Println("approaches round-robin's IPC, and leaves the low-priority ALUs cool.")
}
