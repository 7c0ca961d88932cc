// Package cache implements the simulated memory hierarchy: set-associative
// L1 instruction and data caches backed by a unified L2 and a fixed-latency
// main memory (Table 2: 64 KB 4-way 2-cycle L1s, 2 MB 8-way unified L2,
// 250-cycle memory). Cache behaviour shapes the ILP that reaches the
// back-end: memory-bound workloads keep the issue queue drained and cool,
// while cache-resident workloads sustain the bursts that overheat it.
package cache

import "fmt"

// Cache is one set-associative cache level with true-LRU replacement. It
// tracks tags only (data values live in the architectural memory model).
//
// A way's tag word stores line+1, so the zero value means "invalid": the
// hit loop probes a single array instead of separate tag and valid-bit
// arrays. (The encoding conflates only the line at the very top of the
// address space, unreachable for any line size above one byte.)
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	setMask   uint64
	tags      []uint64 // sets*ways; line+1, 0 = invalid
	stamp     []uint64 // LRU timestamps
	tick      uint64

	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache of sizeKB kilobytes with the given associativity
// and line size in bytes. Size, associativity and line size must yield a
// power-of-two number of sets.
func NewCache(sizeKB, assoc, lineB int) *Cache {
	if sizeKB <= 0 || assoc <= 0 || lineB <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := sizeKB * 1024 / lineB
	sets := lines / assoc
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets not a power of two", sets))
	}
	shift := uint(0)
	for 1<<shift < lineB {
		shift++
	}
	if 1<<shift != lineB {
		panic("cache: line size not a power of two")
	}
	return &Cache{
		sets:      sets,
		ways:      assoc,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*assoc),
		stamp:     make([]uint64, sets*assoc),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Access looks up addr, fills the line on a miss (evicting the LRU way),
// and returns whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.tick++
	line := addr >> c.lineShift
	key := line + 1
	base := int(line&c.setMask) * c.ways
	set := c.tags[base : base+c.ways]
	for w := range set {
		if set[w] == key {
			c.stamp[base+w] = c.tick
			return true
		}
	}
	c.Misses++
	// Fill: pick an invalid way, else the LRU way.
	victim := base
	for w := range set {
		if set[w] == 0 {
			victim = base + w
			goto fill
		}
		if c.stamp[base+w] < c.stamp[victim] {
			victim = base + w
		}
	}
fill:
	c.tags[victim] = key
	c.stamp[victim] = c.tick
	return false
}

// Probe reports whether addr is resident without updating LRU state or
// statistics.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineShift
	key := line + 1
	base := int(line&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == key {
			return true
		}
	}
	return false
}

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// CopyFrom makes c an exact copy of src — contents, LRU state and
// statistics — so that every later access behaves as it would on src.
// Both caches must have the same geometry; a mismatch is a programming
// error and panics.
func (c *Cache) CopyFrom(src *Cache) {
	if c.sets != src.sets || c.ways != src.ways || c.lineShift != src.lineShift {
		panic(fmt.Sprintf("cache: CopyFrom %dx%d/%dB into %dx%d/%dB",
			src.sets, src.ways, 1<<src.lineShift, c.sets, c.ways, 1<<c.lineShift))
	}
	copy(c.tags, src.tags)
	copy(c.stamp, src.stamp)
	c.tick, c.Accesses, c.Misses = src.tick, src.Accesses, src.Misses
}

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	c.Accesses, c.Misses, c.tick = 0, 0, 0
}

// Level identifies where an access was satisfied.
type Level uint8

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "memory"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// Hierarchy bundles the two L1s, the unified L2 and main memory latency.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache

	L1Latency  int
	L2Latency  int
	MemLatency int
}

// NewHierarchy builds the Table 2 memory system.
func NewHierarchy(l1KB, l1Assoc, lineB, l1Lat, l2KB, l2Assoc, l2Lat, memLat int) *Hierarchy {
	return &Hierarchy{
		L1I:        NewCache(l1KB, l1Assoc, lineB),
		L1D:        NewCache(l1KB, l1Assoc, lineB),
		L2:         NewCache(l2KB, l2Assoc, lineB),
		L1Latency:  l1Lat,
		L2Latency:  l2Lat,
		MemLatency: memLat,
	}
}

// Data performs a data access and returns its total latency in cycles and
// the level that satisfied it. Misses propagate down and fill upward
// (non-inclusive fill-on-miss).
func (h *Hierarchy) Data(addr uint64) (latency int, level Level) {
	if h.L1D.Access(addr) {
		return h.L1Latency, LevelL1
	}
	if h.L2.Access(addr) {
		return h.L1Latency + h.L2Latency, LevelL2
	}
	return h.L1Latency + h.L2Latency + h.MemLatency, LevelMem
}

// Inst performs an instruction fetch access.
func (h *Hierarchy) Inst(addr uint64) (latency int, level Level) {
	if h.L1I.Access(addr) {
		return h.L1Latency, LevelL1
	}
	if h.L2.Access(addr) {
		return h.L1Latency + h.L2Latency, LevelL2
	}
	return h.L1Latency + h.L2Latency + h.MemLatency, LevelMem
}

// WarmData touches addr in the data path without recording statistics
// anywhere but the caches themselves; used for cache warmup before
// measurement, mirroring the paper's L2 warmup during fast-forward.
func (h *Hierarchy) WarmData(addr uint64) {
	if !h.L1D.Access(addr) {
		h.L2.Access(addr)
	}
}

// CopyFrom copies the state of src's three caches into h's (see
// Cache.CopyFrom; a geometry mismatch panics). The latencies stay h's
// own: what the caches hold does not depend on them.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.L1I.CopyFrom(src.L1I)
	h.L1D.CopyFrom(src.L1D)
	h.L2.CopyFrom(src.L2)
}

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
}
