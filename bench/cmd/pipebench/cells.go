package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
)

// cell is one simulation-cell payload: exactly the fields of a service
// cell request, which is also what experiments.Run builds per matrix slot.
type cell struct {
	Bench  string
	Plan   config.FloorplanVariant
	Tech   config.Techniques
	Cycles int64
	Warmup int
}

func (c cell) request() service.Request {
	return service.Request{Benchmark: c.Bench, Plan: c.Plan, Techniques: c.Tech, Cycles: c.Cycles, Warmup: c.Warmup}
}

// config is the machine configuration runCell and experiments.Run build
// for the cell: the defaults with the cell's floorplan and techniques.
func (c cell) config() *config.Config {
	cfg := config.Default()
	cfg.Plan = c.Plan
	cfg.Techniques = c.Tech
	return cfg
}

// computeCell runs the cell with the calls the service's runCell makes and
// returns the result and its canonical JSON bytes.
func computeCell(c cell) (*sim.Result, []byte, error) {
	s, err := sim.NewByName(c.config(), c.Bench)
	if err != nil {
		return nil, nil, err
	}
	s.WarmupInstructions = c.Warmup
	r, err := s.RunCyclesContext(context.Background(), c.Cycles)
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(r)
	return r, b, err
}

// paperExperiments are the figure experiments the paper-matrix workload
// regenerates, and whose variants the service payloads draw from.
var paperExperiments = []string{"fig6", "fig7", "fig8", "temporal"}

type shape struct {
	plan config.FloorplanVariant
	tech config.Techniques
}

// paperShapes lists every (floorplan, techniques) pair of the paper
// experiments: 13 shapes over the three constrained floorplans.
func paperShapes() []shape {
	var out []shape
	for _, id := range paperExperiments {
		spec, err := experiments.ByID(id, 0)
		if err != nil {
			panic(err) // the IDs above are the registry's own
		}
		for _, v := range spec.Variants {
			out = append(out, shape{spec.Plan, v.Tech})
		}
	}
	return out
}

// Streams keep each workload's draws independent of the others'.
const (
	streamPaper = iota + 1
	streamHit
	streamHitKeys
	streamMiss
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// cellDrawer draws cells with distinct job keys: any of the 22 profiles,
// any paper shape, cycles and warmup uniform in the given ranges.
type cellDrawer struct {
	r                *rand.Rand
	benches          []string
	shapes           []shape
	cycMin, cycMax   int64
	warmMin, warmMax int
	seen             map[string]bool
}

func newCellDrawer(r *rand.Rand, cycMin, cycMax int64, warmMin, warmMax int) *cellDrawer {
	return &cellDrawer{
		r: r, benches: experiments.AllBenchmarks(), shapes: paperShapes(),
		cycMin: cycMin, cycMax: cycMax, warmMin: warmMin, warmMax: warmMax,
		seen: map[string]bool{},
	}
}

func (d *cellDrawer) draw() (cell, error) {
	for {
		sh := d.shapes[d.r.IntN(len(d.shapes))]
		c := cell{
			Bench:  d.benches[d.r.IntN(len(d.benches))],
			Plan:   sh.plan,
			Tech:   sh.tech,
			Cycles: d.cycMin + d.r.Int64N(d.cycMax-d.cycMin+1),
			Warmup: d.warmMin + d.r.IntN(d.warmMax-d.warmMin+1),
		}
		key, err := c.request().Key()
		if err != nil {
			return cell{}, err
		}
		if !d.seen[key] {
			d.seen[key] = true
			return c, nil
		}
	}
}

// hitCells is the service-hit working set: twice the daemon's default
// 256-entry LRU, so a share of hits is served from the disk cache.
const hitCells = 512

// hitPayloads draws the service-hit working set: tiny cells (one or two
// sensor intervals) so populating it stays a small part of a run.
func hitPayloads(seed uint64) ([]cell, error) {
	d := newCellDrawer(newRand(seed, streamHit), 10_000, 20_000, 500, 2_000)
	out := make([]cell, hitCells)
	for i := range out {
		c, err := d.draw()
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// missStream is the service-miss request sequence: cell i is a pure
// function of (seed, i), and no two cells share a job key. Cells are
// short (4 to 8 sensor intervals) so per-job service overhead is a
// measurable share; long cells are covered by paper-matrix.
type missStream struct {
	mu    sync.Mutex
	d     *cellDrawer
	cells []cell
}

func newMissStream(seed uint64) *missStream {
	return &missStream{d: newCellDrawer(newRand(seed, streamMiss), 40_000, 80_000, 1_000, 20_000)}
}

func (m *missStream) at(i int) (cell, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.cells) <= i {
		c, err := m.d.draw()
		if err != nil {
			return cell{}, err
		}
		m.cells = append(m.cells, c)
	}
	return m.cells[i], nil
}

// hitKeys returns the service-hit key sequence: Zipf(s=1.1) ranks over the
// working set, mapped through a seeded permutation so the hottest payloads
// differ between seeds.
func hitKeys(seed uint64) func() int {
	r := newRand(seed, streamHitKeys)
	perm := r.Perm(hitCells)
	z := rand.NewZipf(r, 1.1, 1, hitCells-1)
	return func() int { return perm[z.Uint64()] }
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%v/%v/%d/%d", c.Bench, c.Plan, c.Tech, c.Cycles, c.Warmup)
}
