// Synthetic floorplan generators. The paper's floorplans top out at ~26
// blocks; the thermal model's CSR graph and conjugate-gradient steady
// state target hundreds to thousands of nodes (multi-core plans,
// per-cell banking sweeps, NoC-style meshes).
// These generators produce plans at any size so tests and benchmarks can
// exercise that regime: regular meshes for predictable structure, and
// seeded random guillotine partitions for irregular adjacency patterns.
// Both satisfy the same geometric invariants as the paper plans (no
// overlaps, no gaps, reciprocal adjacency) and are fully deterministic.
package floorplan

import "fmt"

// MeshCell returns the name of the mesh block at row r, column c.
func MeshCell(r, c int) string { return fmt.Sprintf("Cell%d_%d", r, c) }

// Mesh builds a rows × cols grid floorplan covering the standard die
// width in both dimensions: every cell is DieWidth/cols wide and
// DieWidth/rows tall, so the die stays the familiar square regardless of
// the grid shape. Interior cells have four lateral neighbours, edges
// three, corners two — the NoC-style topology the CSR thermal graph is
// built for.
func Mesh(rows, cols int) *Plan {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("floorplan: Mesh(%d, %d)", rows, cols))
	}
	p := &Plan{byName: make(map[string]int, rows*cols)}
	w := DieWidth / float64(cols)
	h := DieWidth / float64(rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			name := MeshCell(r, c)
			p.byName[name] = len(p.Blocks)
			p.Blocks = append(p.Blocks, Block{
				Name: name,
				X:    float64(c) * w,
				Y:    float64(r) * h,
				W:    w,
				H:    h,
			})
		}
	}
	// Mesh adjacency is regular; enumerate it directly instead of the
	// O(n²) geometric scan (a 3000-cell plan would pay ~10M pair checks
	// for a structure we already know). Order matches computeAdjacency's
	// (A < B, A ascending), which the geometry tests verify.
	p.Adj = make([]Adjacency, 0, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if c+1 < cols { // right neighbour: vertical shared edge
				p.Adj = append(p.Adj, Adjacency{A: i, B: i + 1, Shared: h, Dist: w})
			}
			if r+1 < rows { // upper neighbour: horizontal shared edge
				p.Adj = append(p.Adj, Adjacency{A: i, B: i + cols, Shared: w, Dist: h})
			}
		}
	}
	return p
}

// RandomCell returns the name of random-plan block i.
func RandomCell(i int) string { return fmt.Sprintf("Rand%d", i) }

// Random builds an n-block floorplan by deterministic guillotine
// partitioning of the square die: starting from the whole die, the
// largest remaining rectangle is repeatedly split along its longer side
// at a pseudo-random fraction drawn from the seed. The same (n, seed)
// always yields the same plan, byte for byte, so differential tests can
// reference plans by seed. Splits preserve area exactly, so the usual
// no-overlap/no-gap invariants hold at any size.
func Random(n int, seed uint64) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("floorplan: Random(%d)", n))
	}
	rng := splitmix64{state: seed}
	rects := make([]Block, 1, n)
	rects[0] = Block{X: 0, Y: 0, W: DieWidth, H: DieWidth}
	for len(rects) < n {
		// Split the largest rectangle (ties broken by lowest index, so
		// selection is deterministic).
		best := 0
		for i := 1; i < len(rects); i++ {
			if rects[i].Area() > rects[best].Area() {
				best = i
			}
		}
		r := rects[best]
		f := 0.35 + 0.30*rng.float64() // keep aspect ratios sane
		var a, b Block
		if r.W >= r.H {
			w1 := r.W * f
			a = Block{X: r.X, Y: r.Y, W: w1, H: r.H}
			b = Block{X: r.X + w1, Y: r.Y, W: r.W - w1, H: r.H}
		} else {
			h1 := r.H * f
			a = Block{X: r.X, Y: r.Y, W: r.W, H: h1}
			b = Block{X: r.X, Y: r.Y + h1, W: r.W, H: r.H - h1}
		}
		rects[best] = a
		rects = append(rects, b)
	}
	p := &Plan{byName: make(map[string]int, n)}
	for i, r := range rects {
		r.Name = RandomCell(i)
		p.byName[r.Name] = i
		p.Blocks = append(p.Blocks, r)
	}
	p.computeAdjacency()
	return p
}

// splitmix64 is the standard 64-bit mixing generator; self-contained so
// plan generation never depends on math/rand's version-dependent stream.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (s *splitmix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
