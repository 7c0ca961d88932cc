// Thermal trace: dump a per-block temperature time series (CSV to stdout)
// for one run, suitable for plotting heating transients, cooling stalls
// and toggle events. Demonstrates driving the simulator's components
// manually instead of through sim.Simulator.
//
//	go run ./examples/thermal_trace > trace.csv
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/trace"
)

func main() {
	benchmark := "eon"
	if len(os.Args) > 1 {
		benchmark = os.Args[1]
	}

	cfg := config.Default()
	cfg.Plan = config.PlanIQConstrained
	cfg.Techniques.IQ = config.IQToggle

	prof, err := trace.ByName(benchmark)
	if err != nil {
		log.Fatal(err)
	}
	plan := floorplan.Build(cfg.Plan)
	meter := power.NewMeter(plan, cfg)
	pipe, err := pipeline.New(cfg, plan, meter, trace.NewGenerator(prof))
	if err != nil {
		log.Fatal(err)
	}
	th := thermal.New(plan, cfg)
	mgr := core.New(cfg, plan, pipe, th)

	pipe.Warmup(3_000_000)

	// Columns: time (ms of thermal time), a few interesting blocks, and
	// event markers.
	watch := []string{
		floorplan.IntQ0, floorplan.IntQ1,
		floorplan.IntReg0, floorplan.IntReg1,
		"IntExec0", "IntExec5", floorplan.ICache,
	}
	fmt.Print("ms")
	for _, b := range watch {
		fmt.Printf(",%s", b)
	}
	fmt.Println(",stalled,toggles")

	interval := cfg.SensorIntervalCycles
	spc := cfg.ThermalSecondsPerCycle()
	pow := make([]float64, plan.NumBlocks())
	thermalMS := 0.0
	emit := func(stalled int) {
		fmt.Printf("%.3f", thermalMS)
		for _, b := range watch {
			fmt.Printf(",%.2f", th.TempByName(b))
		}
		fmt.Printf(",%d,%d\n", stalled, mgr.IntToggles+mgr.FPToggles)
	}

	for cycles := int64(0); cycles < 4_000_000; {
		for i := 0; i < interval; i++ {
			pipe.Cycle()
		}
		cycles += int64(interval)
		meter.Drain(interval, 0, pow)
		th.Advance(pow, float64(interval)*spc)
		thermalMS += float64(interval) * spc * 1000
		emit(0)

		if stall := mgr.Control(); stall > 0 {
			// Cooling stall: idle power only.
			for stall > 0 {
				chunk := interval
				if stall < chunk {
					chunk = stall
				}
				meter.Drain(0, chunk, pow)
				th.Advance(pow, float64(chunk)*spc)
				thermalMS += float64(chunk) * spc * 1000
				cycles += int64(chunk)
				stall -= chunk
				emit(1)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "done: IPC=%.3f stalls=%d toggles=%d\n",
		pipe.IPC(), mgr.Stalls, mgr.IntToggles+mgr.FPToggles)
}
