package sim

// Interval-stepping seam: the multicore layer (internal/multicore) maps N
// machines onto one shared floorplan and one shared thermal network, so
// it owns the thermal integration loop that run() owns in the single-core
// case. These methods expose run()'s building blocks — one sensor
// interval of execution or stall, and external-temperature sensing + DTM
// — without changing the single-core protocol; the warmup is WarmupArch,
// which run() itself calls.
//
// Contract: each StepInterval covers exactly SensorIntervalCycles of
// wall-clock time whether the core executes or stalls, so lockstep
// callers can advance every core by one interval and integrate the shared
// field once. Cooling stalls are therefore quantized to whole sensor
// intervals (the single-core path services the sub-interval remainder
// exactly; at the default configuration that rounds a 32.8-interval stall
// to 33). The DVFS divided clock is not supported through this seam —
// a divided interval would break the uniform-wall-time contract.

// StepInterval advances the machine one sensor interval and returns the
// drained per-block power vector (watts; the slice is reused by the next
// call). When stalled, the pipeline is frozen and the interval deposits
// stall (leakage) power only, accounted as stall cycles — the seam
// analogue of coolingStall.
func (s *Simulator) StepInterval(stalled bool) []float64 {
	interval := s.Cfg.SensorIntervalCycles
	if stalled {
		s.globalCycles += int64(interval)
		s.stallCycles += int64(interval)
		return s.Meter.Drain(0, interval, s.powBuf)
	}
	s.runInterval(interval)
	return s.Meter.Drain(interval, 0, s.powBuf)
}

// SenseExternal overwrites the machine's thermal state with externally
// computed block temperatures — the core's slice of the shared multicore
// field — records a temperature sample, and runs the dynamic thermal
// manager against it, returning the cooling-stall cycles the manager
// demands (0 = none). The machine's own thermal network is never advanced
// by the multicore layer; it serves as the sensor mirror the per-core
// manager reads.
func (s *Simulator) SenseExternal(temps []float64) int {
	s.Th.SetTemps(temps)
	s.sampleTemps()
	return s.Mgr.Control()
}
