package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func small() *Cache { return NewCache(1, 2, 64) } // 1KB, 2-way, 64B lines: 8 sets

func TestGeometry(t *testing.T) {
	c := small()
	if c.Sets() != 8 || c.Ways() != 2 {
		t.Fatalf("geometry %d sets x %d ways", c.Sets(), c.Ways())
	}
	big := NewCache(64, 4, 64)
	if big.Sets() != 256 {
		t.Fatalf("64KB 4-way 64B: %d sets, want 256", big.Sets())
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x103f) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040) {
		t.Fatal("next-line access hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := small() // 8 sets: addresses 64*8=512 apart map to same set
	const stride = 512
	a, b, d := uint64(0), uint64(stride), uint64(2*stride)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent; LRU is b
	c.Access(d) // evicts b
	if !c.Probe(a) {
		t.Fatal("a evicted, but b was LRU")
	}
	if c.Probe(b) {
		t.Fatal("b survived eviction")
	}
	if !c.Probe(d) {
		t.Fatal("d not filled")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := small()
	c.Access(0x0)
	acc, miss := c.Accesses, c.Misses
	if c.Probe(0x4000) {
		t.Fatal("probe hit absent line")
	}
	if c.Accesses != acc || c.Misses != miss {
		t.Fatal("probe changed statistics")
	}
	if c.Probe(0x4000) {
		t.Fatal("probe filled the line")
	}
}

func TestAssociativityFullSetHits(t *testing.T) {
	c := NewCache(1, 4, 64) // 4 sets of 4 ways
	const stride = 64 * 4
	for w := 0; w < 4; w++ {
		c.Access(uint64(w * stride))
	}
	for w := 0; w < 4; w++ {
		if !c.Access(uint64(w * stride)) {
			t.Fatalf("way %d evicted within associativity", w)
		}
	}
}

func TestMissRate(t *testing.T) {
	c := small()
	c.Access(0)
	c.Access(0)
	c.Access(0)
	c.Access(0)
	if got := c.MissRate(); got != 0.25 {
		t.Fatalf("miss rate %v, want 0.25", got)
	}
	c.Reset()
	if c.MissRate() != 0 || c.Probe(0) {
		t.Fatal("Reset incomplete")
	}
}

func TestNewCachePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache(0, 2, 64) },
		func() { NewCache(1, 2, 60) }, // non-power-of-two line
		func() { NewCache(1, 3, 64) }, // 5.33 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry accepted")
				}
			}()
			f()
		}()
	}
}

func newTestHierarchy() *Hierarchy {
	return NewHierarchy(64, 4, 64, 2, 2048, 8, 12, 250)
}

func TestHierarchyLatencies(t *testing.T) {
	h := newTestHierarchy()
	lat, lvl := h.Data(0x1000)
	if lvl != LevelMem || lat != 2+12+250 {
		t.Fatalf("cold data access: %d cycles from %v", lat, lvl)
	}
	lat, lvl = h.Data(0x1000)
	if lvl != LevelL1 || lat != 2 {
		t.Fatalf("warm data access: %d cycles from %v", lat, lvl)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := newTestHierarchy()
	h.Data(0x2000) // fills L1 and L2
	// Evict 0x2000 from L1 by filling its set (4 ways, 64KB/4w/64B = 256 sets).
	stride := uint64(256 * 64)
	for w := 1; w <= 4; w++ {
		h.L1D.Access(0x2000 + uint64(w)*stride)
	}
	if h.L1D.Probe(0x2000) {
		t.Fatal("line still in L1")
	}
	lat, lvl := h.Data(0x2000)
	if lvl != LevelL2 || lat != 2+12 {
		t.Fatalf("L2 hit: %d cycles from %v", lat, lvl)
	}
}

func TestInstPathSeparateFromData(t *testing.T) {
	h := newTestHierarchy()
	h.Inst(0x3000)
	if _, lvl := h.Data(0x3000); lvl == LevelL1 {
		t.Fatal("data access hit in L1I-warmed line without L2")
	}
}

func TestWarmData(t *testing.T) {
	h := newTestHierarchy()
	h.WarmData(0x5000)
	lat, lvl := h.Data(0x5000)
	if lvl != LevelL1 || lat != 2 {
		t.Fatalf("after warmup: %d from %v", lat, lvl)
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMem.String() != "memory" {
		t.Fatal("level strings wrong")
	}
	if Level(9).String() == "" {
		t.Fatal("unknown level string empty")
	}
}

// Property: a working set smaller than the cache never misses after the
// first pass, regardless of access order.
func TestQuickSmallWorkingSetAlwaysHits(t *testing.T) {
	f := func(seed uint64) bool {
		c := NewCache(4, 4, 64) // 4KB
		r := rng.New(seed)
		lines := 32 // 2KB working set: half the cache
		// First pass: touch everything.
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
		// Random accesses must all hit.
		for i := 0; i < 500; i++ {
			if !c.Access(uint64(r.Intn(lines) * 64)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: misses never exceed accesses and both only grow.
func TestQuickStatsMonotone(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := small()
		var prevA, prevM uint64
		for _, a := range addrs {
			c.Access(uint64(a) << 4)
			if c.Accesses < prevA || c.Misses < prevM || c.Misses > c.Accesses {
				return false
			}
			prevA, prevM = c.Accesses, c.Misses
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCopyFromReplaysIdentically: after CopyFrom, the copy answers the
// same access sequence with the same hits and misses as its source, and
// the two stay independent.
func TestCopyFromReplaysIdentically(t *testing.T) {
	r := rng.New(7)
	addr := func() uint64 { return uint64(r.Intn(4096)) * 16 } // 64 KB span over a 4 KB cache
	src := NewCache(4, 4, 64)
	for i := 0; i < 3000; i++ {
		src.Access(addr())
	}
	dst := NewCache(4, 4, 64)
	dst.Access(0x10) // state the copy must overwrite
	dst.CopyFrom(src)
	if dst.Accesses != src.Accesses || dst.Misses != src.Misses {
		t.Fatalf("counters %d/%d, want %d/%d", dst.Accesses, dst.Misses, src.Accesses, src.Misses)
	}
	for i := 0; i < 3000; i++ {
		a := addr()
		if s, d := src.Access(a), dst.Access(a); s != d {
			t.Fatalf("access %d (%#x): source hit=%v, copy hit=%v", i, a, s, d)
		}
	}
	if dst.Accesses != src.Accesses || dst.Misses != src.Misses {
		t.Fatalf("counters diverged: %d/%d vs %d/%d", dst.Accesses, dst.Misses, src.Accesses, src.Misses)
	}
}

func TestHierarchyCopyFromReplaysIdentically(t *testing.T) {
	newH := func() *Hierarchy { return NewHierarchy(4, 2, 64, 2, 32, 4, 12, 250) }
	r := rng.New(8)
	addr := func() uint64 { return uint64(r.Intn(1<<14)) * 8 }
	src := newH()
	for i := 0; i < 5000; i++ {
		src.Data(addr())
		src.Inst(addr())
	}
	dst := newH()
	dst.CopyFrom(src)
	for i := 0; i < 5000; i++ {
		a, b := addr(), addr()
		sl, slv := src.Data(a)
		dl, dlv := dst.Data(a)
		if sl != dl || slv != dlv {
			t.Fatalf("data access %d (%#x): source %d/%v, copy %d/%v", i, a, sl, slv, dl, dlv)
		}
		sl, slv = src.Inst(b)
		dl, dlv = dst.Inst(b)
		if sl != dl || slv != dlv {
			t.Fatalf("inst access %d (%#x): source %d/%v, copy %d/%v", i, b, sl, slv, dl, dlv)
		}
	}
	for _, c := range [][2]*Cache{{src.L1I, dst.L1I}, {src.L1D, dst.L1D}, {src.L2, dst.L2}} {
		if c[0].Accesses != c[1].Accesses || c[0].Misses != c[1].Misses {
			t.Fatalf("counters diverged: %d/%d vs %d/%d", c[1].Accesses, c[1].Misses, c[0].Accesses, c[0].Misses)
		}
	}
}

func TestCopyFromGeometryMismatchPanics(t *testing.T) {
	for name, pair := range map[string][2]*Cache{
		"sets":  {NewCache(4, 4, 64), NewCache(8, 4, 64)},
		"ways":  {NewCache(4, 4, 64), NewCache(8, 8, 64)},
		"lines": {NewCache(4, 4, 64), NewCache(8, 4, 128)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			pair[0].CopyFrom(pair[1])
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("hierarchy L2 mismatch did not panic")
		}
	}()
	NewHierarchy(4, 2, 64, 2, 32, 4, 12, 250).CopyFrom(NewHierarchy(4, 2, 64, 2, 64, 4, 12, 250))
}
