package config

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultMatchesTable2(t *testing.T) {
	c := Default()
	if c.IssueWidth != 6 {
		t.Errorf("issue width %d, want 6", c.IssueWidth)
	}
	if c.ActiveList != 128 {
		t.Errorf("active list %d, want 128", c.ActiveList)
	}
	if c.LSQEntries != 64 {
		t.Errorf("LSQ %d, want 64", c.LSQEntries)
	}
	if c.IQEntries != 32 {
		t.Errorf("issue queue %d, want 32", c.IQEntries)
	}
	if c.L1SizeKB != 64 || c.L1Assoc != 4 || c.L1Latency != 2 || c.L1Ports != 2 {
		t.Errorf("L1 config %d/%d/%d/%d", c.L1SizeKB, c.L1Assoc, c.L1Latency, c.L1Ports)
	}
	if c.L2SizeKB != 2048 || c.L2Assoc != 8 {
		t.Errorf("L2 config %d/%d", c.L2SizeKB, c.L2Assoc)
	}
	if c.MemLatency != 250 {
		t.Errorf("memory latency %d, want 250", c.MemLatency)
	}
	if c.HeatsinkThicknessMM != 6.9 {
		t.Errorf("heatsink %v, want 6.9", c.HeatsinkThicknessMM)
	}
	if c.ConvectionRes != 0.8 {
		t.Errorf("convection %v, want 0.8", c.ConvectionRes)
	}
	if c.CoolingTimeMS != 10 {
		t.Errorf("cooling time %v, want 10", c.CoolingTimeMS)
	}
	if c.MaxTempK != 358 {
		t.Errorf("max temp %v, want 358", c.MaxTempK)
	}
	if c.FrequencyGHz != 4.2 || c.VddVolts != 1.2 || c.TechnologyNM != 90 {
		t.Errorf("clock/volt/tech %v/%v/%v", c.FrequencyGHz, c.VddVolts, c.TechnologyNM)
	}
	if c.IntALUs != 6 || c.FPAdders != 4 {
		t.Errorf("ALUs %d/%d, want 6/4", c.IntALUs, c.FPAdders)
	}
	if c.ToggleThresholdK != 0.5 {
		t.Errorf("toggle threshold %v, want 0.5", c.ToggleThresholdK)
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	mods := []struct {
		name string
		mod  func(*Config)
	}{
		{"issue width", func(c *Config) { c.IssueWidth = 0 }},
		{"odd IQ", func(c *Config) { c.IQEntries = 31 }},
		{"no ALUs", func(c *Config) { c.IntALUs = 0 }},
		{"indivisible RF", func(c *Config) { c.IntALUs = 5 }},
		{"no active list", func(c *Config) { c.ActiveList = 0 }},
		{"few phys regs", func(c *Config) { c.PhysIntRegs = 10 }},
		{"max below ambient", func(c *Config) { c.MaxTempK = 300 }},
		{"bad accel", func(c *Config) { c.ThermalAccel = 0 }},
		{"bad sensor", func(c *Config) { c.SensorIntervalCycles = 0 }},
		{"no L1 ports", func(c *Config) { c.L1Ports = 0 }},
	}
	for _, m := range mods {
		c := Default()
		m.mod(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", m.name)
		}
	}
}

func TestCycleSeconds(t *testing.T) {
	c := Default()
	want := 1 / 4.2e9
	if got := c.CycleSeconds(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("CycleSeconds = %v, want %v", got, want)
	}
}

func TestThermalAcceleration(t *testing.T) {
	c := Default()
	if got, want := c.ThermalSecondsPerCycle(), c.CycleSeconds()*c.ThermalAccel; got != want {
		t.Fatalf("ThermalSecondsPerCycle = %v, want %v", got, want)
	}
	// Cooling stall must cover 10ms of thermal time.
	cool := float64(c.CoolingCycles()) * c.ThermalSecondsPerCycle()
	if math.Abs(cool-10e-3) > 1e-5 {
		t.Fatalf("cooling stall covers %v s of thermal time, want 10ms", cool)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Default()
	b := a.Clone()
	b.IssueWidth = 99
	b.Techniques.IQ = IQToggle
	if a.IssueWidth == 99 || a.Techniques.IQ == IQToggle {
		t.Fatal("Clone shares state with original")
	}
}

func TestStringers(t *testing.T) {
	if IQToggle.String() != "activity-toggling" || IQBase.String() != "base" {
		t.Error("IQPolicy strings wrong")
	}
	if !strings.Contains(ALUFineGrain.String(), "fine-grain") {
		t.Error("ALUPolicy string wrong")
	}
	if MapPriority.String() != "priority" || MapBalanced.String() != "balanced" {
		t.Error("RFMapping strings wrong")
	}
	if !strings.Contains(PlanALUConstrained.String(), "alu") {
		t.Error("FloorplanVariant string wrong")
	}
	if !strings.Contains(WriteMargin.String(), "margin") || !strings.Contains(WriteCopyOnCool.String(), "cool") {
		t.Error("RFWritePolicy strings wrong")
	}
	// Unknown values must not panic and must render something.
	for _, s := range []string{IQPolicy(9).String(), ALUPolicy(9).String(), RFMapping(9).String(), FloorplanVariant(9).String(), RFWritePolicy(9).String()} {
		if s == "" {
			t.Error("empty string for out-of-range enum")
		}
	}
	tech := Techniques{IQ: IQToggle, ALU: ALUFineGrain}
	if s := tech.String(); !strings.Contains(s, "toggling") || !strings.Contains(s, "fine-grain") {
		t.Errorf("Techniques string %q", s)
	}
}

func TestTemporalPolicyStrings(t *testing.T) {
	if TemporalStopGo.String() != "stop-go" || TemporalDVFS.String() != "dvfs" {
		t.Fatal("temporal policy strings wrong")
	}
	if TemporalPolicy(9).String() == "" {
		t.Fatal("unknown temporal policy renders empty")
	}
}

func TestDVFSValidation(t *testing.T) {
	c := Default()
	c.Techniques.Temporal = TemporalDVFS
	if err := c.Validate(); err != nil {
		t.Fatalf("default DVFS invalid: %v", err)
	}
	c.DVFSDivider = 1
	if err := c.Validate(); err == nil {
		t.Fatal("divider 1 accepted")
	}
	c.DVFSDivider = 2
	c.DVFSVoltageScale = 1.5
	if err := c.Validate(); err == nil {
		t.Fatal("voltage scale > 1 accepted")
	}
	// Invalid DVFS parameters are fine while stop-go is selected.
	c.Techniques.Temporal = TemporalStopGo
	if err := c.Validate(); err != nil {
		t.Fatalf("stop-go should ignore DVFS params: %v", err)
	}
}

func TestTechniquesStringIncludesNonDefaultTemporal(t *testing.T) {
	tech := Techniques{Temporal: TemporalDVFS}
	if !strings.Contains(tech.String(), "temporal=dvfs") {
		t.Fatalf("techniques string %q missing temporal", tech.String())
	}
	if strings.Contains(Techniques{}.String(), "temporal") {
		t.Fatal("default temporal should be elided")
	}
}

// TestDefaultReturnsIndependentValues locks in the contract the parallel
// matrix runner depends on: every Default call yields a fresh Config, so
// one cell's technique/plan mutations can never leak into another's.
func TestDefaultReturnsIndependentValues(t *testing.T) {
	a, b := Default(), Default()
	if a == b {
		t.Fatal("Default returned the same pointer twice")
	}
	a.Plan = PlanRFConstrained
	a.Techniques.IQ = IQToggle
	a.IQEntries = 64
	if b.Plan != PlanIQConstrained || b.Techniques.IQ != IQBase || b.IQEntries != 32 {
		t.Fatal("mutating one Default leaked into another")
	}
	if c := Default(); c.Plan != PlanIQConstrained || c.IQEntries != 32 {
		t.Fatal("mutating a Default leaked into a later call")
	}
}
