// Package service is the simulation-as-a-service job engine: it accepts
// simulation requests, canonicalizes them to a stable JSON form, hashes
// that form into a content-addressed job key, and serves results from an
// LRU + optional on-disk cache or schedules a run with single-flight
// deduplication on a bounded queue. cmd/pipethermd exposes the engine
// over HTTP; cmd/experiments can run its matrices through a local engine
// so already-computed cells are skipped.
//
// Caching whole simulation results by request content is sound because
// runs are fully deterministic: the canonical request (benchmark,
// floorplan, techniques, cycles, warmup — everything else comes from
// config.Default()) pins the entire machine state trajectory, so equal
// keys imply byte-identical result JSON (see DESIGN.md, "Job keys and
// the result cache").
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/multicore"
	"repro/internal/trace"
)

// Request describes one simulation cell: a benchmark × technique ×
// floorplan run. The zero Techniques value is the conventional baseline.
// Cycles <= 0 selects experiments.DefaultCycles; Warmup <= 0 selects the
// simulator's default architectural warmup.
//
// A non-nil Multicore field selects the multi-core scheduling job kind
// instead: the cell fields stay zero and the run is one
// multicore.Run(*Multicore). The field is omitted from the canonical
// form when nil, so every pre-existing cell request keeps its exact
// canonical bytes — and therefore its cache key.
type Request struct {
	Benchmark  string                  `json:"benchmark"`
	Plan       config.FloorplanVariant `json:"plan"`
	Techniques config.Techniques       `json:"techniques"`
	Cycles     int64                   `json:"cycles"`
	Warmup     int                     `json:"warmup"`
	Multicore  *multicore.Params       `json:"multicore,omitempty"`
}

// Normalize returns the request with defaults applied — the form that
// is hashed, so explicit defaults and omitted fields share a key.
func (r Request) Normalize() Request {
	if r.Multicore != nil {
		p := r.Multicore.Normalized()
		r.Multicore = &p
		return r
	}
	if r.Cycles <= 0 {
		r.Cycles = experiments.DefaultCycles
	}
	if r.Warmup < 0 {
		r.Warmup = 0
	}
	return r
}

// Validate reports whether the request can run at all. Invalid requests
// fail at submission (HTTP 400), not as failed jobs.
func (r Request) Validate() error {
	if r.Multicore != nil {
		if r.Benchmark != "" {
			return fmt.Errorf("service: request mixes the cell and multicore shapes")
		}
		return r.Multicore.Normalized().Validate()
	}
	if _, err := trace.ByName(r.Benchmark); err != nil {
		return err
	}
	cfg := config.Default()
	cfg.Plan = r.Plan
	cfg.Techniques = r.Techniques
	return cfg.Validate()
}

// Canonical returns the stable JSON encoding of the normalized request:
// fixed field order (struct declaration order), enums as names, defaults
// applied. Equal requests — however they were spelled on the wire —
// produce equal canonical bytes.
func (r Request) Canonical() ([]byte, error) {
	return json.Marshal(r.Normalize())
}

// Key returns the content-addressed job key: the hex SHA-256 of the
// canonical form.
func (r Request) Key() (string, error) {
	c, err := r.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// BatchRequest submits one experiment matrix by its registry ID
// (fig6/fig7/fig8/table4/table5/table6/temporal), reusing
// experiments.Spec to expand into cell requests. Benchmarks narrows the
// figure-style experiments (empty = all 22; the tables pin their own
// sets).
type BatchRequest struct {
	Experiment string   `json:"experiment"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Cycles     int64    `json:"cycles"`
	Warmup     int      `json:"warmup"`
}

// Spec resolves the batch to its experiment spec. A benchmark named
// twice is an error: its cells would repeat, count twice against the
// queue, and give the batch a key of its own for the same matrix.
func (b BatchRequest) Spec() (experiments.Spec, error) {
	spec, err := experiments.ByID(b.Experiment, b.Cycles, b.Benchmarks...)
	if err != nil {
		return experiments.Spec{}, err
	}
	seen := make(map[string]bool, len(spec.Benchmarks))
	for _, name := range spec.Benchmarks {
		if seen[name] {
			return experiments.Spec{}, fmt.Errorf("service: batch names benchmark %q twice", name)
		}
		seen[name] = true
	}
	spec.Warmup = b.Warmup
	return spec, nil
}

// Key returns the batch job key: the hex SHA-256 of the canonical batch
// form (experiment ID, explicit benchmark list, defaults applied as
// Request.Normalize applies them to each cell). The canonical form
// embeds the "experiment" field, which no cell request has, so batch and
// cell keys can never collide.
func (b BatchRequest) Key() (string, error) {
	spec, err := b.Spec()
	if err != nil {
		return "", err
	}
	norm := BatchRequest{
		Experiment: b.Experiment,
		Benchmarks: specBenchmarks(spec),
		Cycles:     spec.Cycles,
		Warmup:     spec.Warmup,
	}
	if norm.Cycles <= 0 {
		norm.Cycles = experiments.DefaultCycles
	}
	if norm.Warmup < 0 {
		norm.Warmup = 0
	}
	c, err := json.Marshal(norm)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// Cells expands the batch into its cell requests in the matrix's serial
// iteration order (benchmark-major, variant-minor — the same order
// experiments.Run assigns result slots).
func (b BatchRequest) Cells() (experiments.Spec, []Request, error) {
	spec, err := b.Spec()
	if err != nil {
		return experiments.Spec{}, nil, err
	}
	benches := specBenchmarks(spec)
	cells := make([]Request, 0, len(benches)*len(spec.Variants))
	for _, bench := range benches {
		for _, v := range spec.Variants {
			cells = append(cells, Request{
				Benchmark:  bench,
				Plan:       spec.Plan,
				Techniques: v.Tech,
				Cycles:     spec.Cycles,
				Warmup:     spec.Warmup,
			}.Normalize())
		}
	}
	return spec, cells, nil
}

func specBenchmarks(spec experiments.Spec) []string {
	if len(spec.Benchmarks) > 0 {
		return spec.Benchmarks
	}
	return experiments.AllBenchmarks()
}

// isKey reports whether s looks like a job key (hex SHA-256). Keys are
// used as cache file names; this guards the disk cache against path
// injection.
func isKey(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
