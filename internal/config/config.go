// Package config holds the processor, thermal-package, and technique
// parameters for the simulated machine. The defaults reproduce Table 2 of
// the paper ("Processor Parameters") and the dynamic-thermal-management
// constants given in its §3 (sensor interval, toggle threshold, cooling
// time, maximum temperature).
package config

import "fmt"

// IQPolicy selects the issue-queue power-density technique (§2.1).
type IQPolicy uint8

const (
	// IQBase is the conventional compacting queue: head fixed at the
	// bottom, static priority, no thermal response short of a global stall.
	IQBase IQPolicy = iota
	// IQToggle is the paper's activity toggling: when the temperature
	// difference between the queue halves exceeds ToggleThresholdK, the
	// head/tail configuration toggles between bottom-of-queue and
	// middle-of-queue modes.
	IQToggle
	// IQNonCompacting replaces the compacting queue with the
	// related-work non-compacting organization (Buyuktosunoglu et al.,
	// cited by the paper): no compaction wires, entries stay in place.
	// Used as an ablation of the paper's premise.
	IQNonCompacting
)

// iqPolicyNames lists each IQPolicy's name, indexed by value.
var iqPolicyNames = []string{"base", "activity-toggling", "non-compacting"}

func (p IQPolicy) String() string { return enumName(p, "IQPolicy", iqPolicyNames) }

// ALUPolicy selects the ALU power-density technique (§2.2).
type ALUPolicy uint8

const (
	// ALUBase stalls the whole processor when any ALU overheats.
	ALUBase ALUPolicy = iota
	// ALUFineGrain marks an overheated ALU busy so select steers work to
	// the remaining cool ALUs; the core stalls only if every ALU of a
	// class is hot.
	ALUFineGrain
	// ALURoundRobin is the paper's idealized upper bound: select priority
	// rotates every cycle, spreading accesses evenly. It also permits
	// fine-grain turnoff.
	ALURoundRobin
)

// aluPolicyNames lists each ALUPolicy's name, indexed by value.
var aluPolicyNames = []string{"base", "fine-grain-turnoff", "round-robin"}

func (p ALUPolicy) String() string { return enumName(p, "ALUPolicy", aluPolicyNames) }

// RFMapping selects how ALU read ports are wired to register-file copies
// (Figure 4 of the paper).
type RFMapping uint8

const (
	// MapPriority wires all high-priority ALUs to copy 0 and all
	// low-priority ALUs to copy 1.
	MapPriority RFMapping = iota
	// MapBalanced (the paper's "simplified balanced mapping") interleaves
	// high- and low-priority ALUs across the copies.
	MapBalanced
	// MapCompletelyBalanced gives every ALU one read port on each copy.
	// The paper rejects it for wiring reasons; we keep it as an ablation.
	MapCompletelyBalanced
)

// rfMappingNames lists each RFMapping's name, indexed by value.
var rfMappingNames = []string{"priority", "balanced", "completely-balanced"}

func (m RFMapping) String() string { return enumName(m, "RFMapping", rfMappingNames) }

// RFWritePolicy selects how writes are handled while a register-file copy
// cools (§2.3, last paragraph).
type RFWritePolicy uint8

const (
	// WriteMargin turns a copy off at MaxTempK-RFWriteMarginK so that
	// writes (one third of accesses) may continue while the copy cools.
	WriteMargin RFWritePolicy = iota
	// WriteCopyOnCool blocks writes to the overheated copy and copies the
	// register values back in when cooling ends, charging the copy cost.
	WriteCopyOnCool
)

// rfWritePolicyNames lists each RFWritePolicy's name, indexed by value.
var rfWritePolicyNames = []string{"margin-writes", "copy-on-cool"}

func (p RFWritePolicy) String() string { return enumName(p, "RFWritePolicy", rfWritePolicyNames) }

// TemporalPolicy selects the temporal fallback used when the spatial
// techniques cannot contain an overheat (§1 and §5 of the paper discuss
// both families).
type TemporalPolicy uint8

const (
	// TemporalStopGo halts the processor for the thermal cooling time,
	// like the Pentium 4 mechanism the paper compares against.
	TemporalStopGo TemporalPolicy = iota
	// TemporalDVFS drops to a divided clock (and scaled voltage) until
	// the hot resource recovers below the hysteresis point — the
	// fine-grain temporal technique of Skadron et al. that the paper
	// cites as the main temporal alternative.
	TemporalDVFS
)

// temporalPolicyNames lists each TemporalPolicy's name, indexed by value.
var temporalPolicyNames = []string{"stop-go", "dvfs"}

func (p TemporalPolicy) String() string { return enumName(p, "TemporalPolicy", temporalPolicyNames) }

// Scheduler selects the multicore task-to-core scheduling policy
// (internal/multicore). The single-core paper pipeline never consults it.
type Scheduler uint8

const (
	// SchedRoundRobin assigns tasks to idle cores in rotating index order,
	// blind to temperature. This is the default and the paper-agnostic
	// baseline the thermal-aware policies are compared against.
	SchedRoundRobin Scheduler = iota
	// SchedRandom assigns tasks to a uniformly random idle core, drawn
	// from the scheduler's own deterministic rng stream.
	SchedRandom
	// SchedCoolestFirst assigns the next task to the idle core whose
	// hottest block is coldest (Hung et al.'s thermal-aware allocation).
	SchedCoolestFirst
	// SchedThresholdMigrate is coolest-first assignment plus migration: a
	// task moves off a core whose peak block temperature enters the band
	// below the critical threshold, onto a sufficiently cooler idle core
	// (Chrobak et al.'s cooling-aware shape).
	SchedThresholdMigrate
)

// schedulerNames lists each Scheduler's name, indexed by value.
var schedulerNames = []string{"roundrobin", "random", "coolest-first", "threshold-migrate"}

func (s Scheduler) String() string { return enumName(s, "Scheduler", schedulerNames) }

// Schedulers lists every scheduling policy in definition order.
func Schedulers() []Scheduler {
	return []Scheduler{SchedRoundRobin, SchedRandom, SchedCoolestFirst, SchedThresholdMigrate}
}

// FloorplanVariant selects which back-end resource the floorplan makes the
// thermal bottleneck (Figure 5 of the paper).
type FloorplanVariant uint8

const (
	// PlanIQConstrained shrinks the issue queues so they run hottest.
	PlanIQConstrained FloorplanVariant = iota
	// PlanALUConstrained shrinks the integer ALUs so they run hottest.
	PlanALUConstrained
	// PlanRFConstrained shrinks the integer register-file copies so they
	// run hottest.
	PlanRFConstrained
)

// floorplanVariantNames lists each FloorplanVariant's name, indexed by value.
var floorplanVariantNames = []string{"issue-queue-constrained", "alu-constrained", "register-file-constrained"}

func (v FloorplanVariant) String() string {
	return enumName(v, "FloorplanVariant", floorplanVariantNames)
}

// Techniques bundles the power-density technique selections for one run.
// The zero value is the conventional baseline everywhere.
type Techniques struct {
	IQ        IQPolicy       `json:"iq"`
	ALU       ALUPolicy      `json:"alu"`
	RFMap     RFMapping      `json:"rf_map"`
	RFTurnoff bool           `json:"rf_turnoff"` // fine-grain turnoff of register-file copies
	RFWrites  RFWritePolicy  `json:"rf_writes"`
	Temporal  TemporalPolicy `json:"temporal"` // fallback when spatial techniques run out
}

func (t Techniques) String() string {
	s := fmt.Sprintf("iq=%v alu=%v rfmap=%v rfturnoff=%v", t.IQ, t.ALU, t.RFMap, t.RFTurnoff)
	if t.Temporal != TemporalStopGo {
		s += fmt.Sprintf(" temporal=%v", t.Temporal)
	}
	return s
}

// Config is the full machine configuration. Construct with Default and
// modify fields before wiring up a simulator; the configuration is treated
// as immutable once a simulation starts.
type Config struct {
	// Pipeline parameters (Table 2).
	IssueWidth  int // out-of-order issue width (6)
	FetchWidth  int // fetch/dispatch width per cycle
	CommitWidth int // commit width per cycle
	ActiveList  int // reorder-buffer entries (128)
	LSQEntries  int // load/store queue entries (64, the most allowed)
	IQEntries   int // entries in EACH of the int and FP issue queues (32)
	IntALUs     int // integer execution units (6), incl. ld/st and branch
	FPAdders    int // floating-point adders (4)
	FPMuls      int // floating-point multipliers (1)
	IntRFCopies int // integer register-file copies (2)
	PhysIntRegs int // physical integer registers
	PhysFPRegs  int // physical floating-point registers

	// Operation latencies in cycles.
	IntALULatency int
	IntMulLatency int
	FPAddLatency  int
	FPMulLatency  int
	BranchPenalty int // cycles lost on a mispredict redirect

	// Issue-queue residency: an issued entry stays (marked invalid) this
	// many cycles before it may be compacted away, covering load replays
	// as described in §2.1.
	IssueDrainCycles int

	// Memory hierarchy (Table 2).
	L1SizeKB   int // 64 KB
	L1Assoc    int // 4-way
	L1LineB    int // line size
	L1Latency  int // 2-cycle
	L1Ports    int // 2 ports
	L2SizeKB   int // 2 MB unified
	L2Assoc    int // 8-way
	L2Latency  int
	MemLatency int // 250 cycles

	// Clock and package (Table 2).
	FrequencyGHz        float64 // 4.2
	VddVolts            float64 // 1.2
	TechnologyNM        int     // 90
	HeatsinkThicknessMM float64 // 6.9
	ConvectionRes       float64 // 0.8 K/W
	AmbientK            float64 // ambient air temperature
	MaxTempK            float64 // 358 K thermal threshold
	CoolingTimeMS       float64 // 10 ms stall when a resource overheats

	// Dynamic thermal management (§3).
	// SensorIntervalCycles is the temperature sampling period. The paper
	// samples every 100 k cycles (~24 µs at 4.2 GHz); under the thermal
	// acceleration one simulated cycle covers ThermalAccel cycles of
	// thermal time, so the default of 10 k keeps the sampled thermal
	// period (~0.3 ms) well below the block time constants, as §3
	// requires.
	SensorIntervalCycles int
	ToggleThresholdK     float64 // issue-queue half imbalance that triggers a toggle
	TurnoffHysteresisK   float64 // a turned-off unit resumes below MaxTempK-this
	RFWriteMarginK       float64 // RF turnoff threshold margin for WriteMargin policy

	// DVFS parameters (TemporalDVFS): the clock divider applied while
	// hot, and the voltage scale factor (dynamic energy scales with V²).
	DVFSDivider      int
	DVFSVoltageScale float64

	// SensorNoiseK adds deterministic pseudo-random measurement error of
	// this amplitude (uniform ±SensorNoiseK) to every temperature sensor
	// reading the manager sees. The paper assumes ideal sensors; real
	// on-chip sensors (e.g. POWER5's 24) have ~1-2 K error, and this knob
	// quantifies the techniques' robustness to it. Zero disables noise.
	SensorNoiseK float64

	// ThermalAccel compresses the thermal time axis: each simulated cycle
	// advances thermal time by ThermalAccel cycles. The paper runs 500 M
	// instructions (~120 ms) per benchmark; acceleration lets runs of a
	// few million cycles exhibit the same heating/cooling dynamics. The
	// RC network is linear, so this is a pure rescaling (see DESIGN.md).
	ThermalAccel float64

	Plan       FloorplanVariant
	Techniques Techniques
}

// Default returns the paper's Table 2 configuration with the conventional
// (baseline) techniques selected.
func Default() *Config {
	return &Config{
		IssueWidth:  6,
		FetchWidth:  8,
		CommitWidth: 8,
		ActiveList:  128,
		LSQEntries:  64,
		IQEntries:   32,
		IntALUs:     6,
		FPAdders:    4,
		FPMuls:      1,
		IntRFCopies: 2,
		PhysIntRegs: 160,
		PhysFPRegs:  160,

		IntALULatency: 1,
		IntMulLatency: 3,
		FPAddLatency:  2,
		FPMulLatency:  4,
		BranchPenalty: 8,

		IssueDrainCycles: 2,

		L1SizeKB:   64,
		L1Assoc:    4,
		L1LineB:    64,
		L1Latency:  2,
		L1Ports:    2,
		L2SizeKB:   2048,
		L2Assoc:    8,
		L2Latency:  12,
		MemLatency: 250,

		FrequencyGHz:        4.2,
		VddVolts:            1.2,
		TechnologyNM:        90,
		HeatsinkThicknessMM: 6.9,
		ConvectionRes:       0.8,
		AmbientK:            318.0, // 45 C ambient inside the case
		MaxTempK:            358.0,
		CoolingTimeMS:       10.0,

		DVFSDivider:      2,
		DVFSVoltageScale: 0.85,

		SensorIntervalCycles: 10_000,
		ToggleThresholdK:     0.5,
		TurnoffHysteresisK:   1.0,
		RFWriteMarginK:       0.5,

		ThermalAccel: 128.0,

		Plan: PlanIQConstrained,
	}
}

// CycleSeconds returns the wall-clock duration of one cycle.
func (c *Config) CycleSeconds() float64 {
	return 1 / (c.FrequencyGHz * 1e9)
}

// ThermalSecondsPerCycle returns the thermal-time advance per simulated
// cycle, including the acceleration factor.
func (c *Config) ThermalSecondsPerCycle() float64 {
	return c.CycleSeconds() * c.ThermalAccel
}

// CoolingCycles returns the length of a global cooling stall in simulated
// cycles. The paper's 10 ms stall is divided by the thermal acceleration so
// that the stall covers the same amount of *thermal* time as in the paper.
func (c *Config) CoolingCycles() int {
	return int(c.CoolingTimeMS * 1e-3 / c.ThermalSecondsPerCycle())
}

// Validate reports the first configuration inconsistency found, or nil.
// The machine-shape checks are the preconditions of the constructors the
// simulator calls, and of forward progress.
func (c *Config) Validate() error {
	switch {
	case c.IssueWidth <= 0 || c.FetchWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("config: issue/fetch/commit width %d/%d/%d must each be at least 1",
			c.IssueWidth, c.FetchWidth, c.CommitWidth)
	case c.IQEntries <= 0 || c.IQEntries%8 != 0 || c.IQEntries > 64:
		// The select trees split each half into 4-input groups, and the
		// queue keeps its state in 64-bit masks.
		return fmt.Errorf("config: issue queue entries %d must be a positive multiple of 8, at most 64", c.IQEntries)
	case c.IssueDrainCycles < 0:
		return fmt.Errorf("config: issue drain cycles %d", c.IssueDrainCycles)
	case c.IntALUs <= 0:
		return fmt.Errorf("config: %d integer ALUs", c.IntALUs)
	case c.FPAdders <= 0 || c.FPMuls <= 0:
		return fmt.Errorf("config: %d FP adders / %d FP multipliers", c.FPAdders, c.FPMuls)
	case c.IntRFCopies <= 0 || c.IntALUs%c.IntRFCopies != 0:
		return fmt.Errorf("config: %d ALUs not divisible across %d register-file copies", c.IntALUs, c.IntRFCopies)
	case c.ActiveList <= 0 || c.LSQEntries <= 0:
		return fmt.Errorf("config: active list %d / LSQ %d", c.ActiveList, c.LSQEntries)
	case c.LSQEntries > 64:
		return fmt.Errorf("config: LSQ %d entries exceeds the 64-slot store mask", c.LSQEntries)
	case c.PhysIntRegs < c.ActiveList+32:
		return fmt.Errorf("config: %d physical int registers too few for %d in flight", c.PhysIntRegs, c.ActiveList)
	case c.PhysFPRegs < c.ActiveList+32:
		return fmt.Errorf("config: %d physical FP registers too few for %d in flight", c.PhysFPRegs, c.ActiveList)
	case !pow2(c.L1LineB) || !pow2(cacheSets(c.L1SizeKB, c.L1Assoc, c.L1LineB)) ||
		!pow2(cacheSets(c.L2SizeKB, c.L2Assoc, c.L1LineB)):
		return fmt.Errorf("config: L1 %d KB %d-way / L2 %d KB %d-way at %d B lines: line size and set counts must be powers of two",
			c.L1SizeKB, c.L1Assoc, c.L2SizeKB, c.L2Assoc, c.L1LineB)
	case c.MaxTempK <= c.AmbientK:
		return fmt.Errorf("config: max temp %.1fK not above ambient %.1fK", c.MaxTempK, c.AmbientK)
	case c.ThermalAccel <= 0:
		return fmt.Errorf("config: thermal acceleration %v", c.ThermalAccel)
	case c.SensorIntervalCycles <= 0:
		return fmt.Errorf("config: sensor interval %d", c.SensorIntervalCycles)
	case c.L1Ports <= 0:
		return fmt.Errorf("config: %d L1 ports", c.L1Ports)
	case c.Techniques.Temporal == TemporalDVFS && (c.DVFSDivider < 2 || c.DVFSVoltageScale <= 0 || c.DVFSVoltageScale > 1):
		return fmt.Errorf("config: DVFS divider %d / voltage scale %v", c.DVFSDivider, c.DVFSVoltageScale)
	}
	return nil
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// cacheSets is the set count of a cache of the given geometry, 0 when
// any dimension is not positive.
func cacheSets(sizeKB, assoc, lineB int) int {
	if sizeKB <= 0 || assoc <= 0 || lineB <= 0 {
		return 0
	}
	return sizeKB * 1024 / lineB / assoc
}

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	dup := *c
	return &dup
}
