package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/trace"
)

// Probes time public functions of one layer from outside, on the
// workload's own payloads. They stand in for spans inside the program
// until the program records its own.

// probeWrites bounds the fsync-ing probes (cache puts, journal appends).
const probeWrites = 32

// probeService times the service layer on the given requests and their
// result bytes: job keys, validation, LRU and disk cache reads, and the
// two fsync-ing writes a miss makes, the disk-cache put and the journal
// append. dir is scratch space the probe may fill.
func probeService(dir string, reqs []service.Request, results [][]byte, put func(string, float64)) error {
	n := len(reqs)
	if n == 0 || len(results) != n {
		return fmt.Errorf("service probe: %d requests, %d results", n, len(results))
	}
	const reps = 4000
	t := time.Now()
	keys := make([]string, n)
	for i := 0; i < reps; i++ {
		k, err := reqs[i%n].Key()
		if err != nil {
			return err
		}
		keys[i%n] = k
	}
	put("service.key_us", micros(time.Since(t))/reps)
	t = time.Now()
	for i := 0; i < reps; i++ {
		if err := reqs[i%n].Validate(); err != nil {
			return err
		}
	}
	put("service.validate_us", micros(time.Since(t))/reps)

	w := min(n, probeWrites)
	cacheDir := filepath.Join(dir, "cache")
	c, err := service.NewCache(n, cacheDir)
	if err != nil {
		return err
	}
	t = time.Now()
	for i := 0; i < w; i++ {
		c.Put(keys[i], results[i])
	}
	put("service.cache_put_ms", millis(time.Since(t))/float64(w))
	t = time.Now()
	for i := 0; i < reps; i++ {
		if _, ok := c.Get(keys[i%w]); !ok {
			return fmt.Errorf("service probe: memory cache lost key %d", i%w)
		}
	}
	put("service.cache_get_mem_us", micros(time.Since(t))/reps)
	// A one-entry cache over the same directory misses memory on every
	// distinct key, so each Get reads, checks and promotes a disk entry.
	disk, err := service.NewCache(1, cacheDir)
	if err != nil {
		return err
	}
	t = time.Now()
	for i := 0; i < w; i++ {
		if _, ok := disk.Get(keys[i]); !ok {
			return fmt.Errorf("service probe: disk cache lost key %d", i)
		}
	}
	put("service.cache_get_disk_us", micros(time.Since(t))/float64(w))

	j, _, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	var appendNs time.Duration
	for i := 0; i < w; i++ {
		canon, err := reqs[i].Canonical()
		if err != nil {
			j.Close()
			return err
		}
		t = time.Now()
		if err := j.Append(journal.Record{Op: journal.OpSubmit, Key: keys[i], Req: canon}); err != nil {
			j.Close()
			return err
		}
		appendNs += time.Since(t)
	}
	put("journal.append_ms", millis(appendNs)/float64(w))
	if err := j.Close(); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// nextSink keeps the probed Next calls observable to the compiler.
var nextSink uint64

// probeTraceNext times trace.Generator.Next on each named profile and
// returns the mean nanoseconds per generated instruction.
func probeTraceNext(benches []string) (float64, error) {
	const n = 200_000
	var total time.Duration
	for _, b := range benches {
		prof, err := trace.ByName(b)
		if err != nil {
			return 0, err
		}
		g := trace.NewGenerator(prof)
		t := time.Now()
		for i := 0; i < n; i++ {
			nextSink += g.Next().PC
		}
		total += time.Since(t)
	}
	return float64(total.Nanoseconds()) / float64(n*len(benches)), nil
}

// layerProbes puts into vals the metrics every traced run reports: the
// replica cells' layer times (from spans) and counts (from acc),
// Generator.Next on the benches, and the service probe on reqs and results.
func layerProbes(vals map[string]float64, acc *layerAcc, spans []span, benches []string, scratch string, reqs []service.Request, results [][]byte) error {
	put := func(k string, v float64) { vals[k] = v }
	acc.report(spans, put)
	next, err := probeTraceNext(benches)
	if err != nil {
		return err
	}
	put("trace.next_ns", next)
	if pipeNs := vals["pipeline.cycle_ns"] * vals["pipeline.cycles"]; pipeNs > 0 {
		// Instructions reach the pipeline through Generator.Next, so the
		// probe's cost times the instructions fetched estimates the trace
		// layer's share of the pipeline's time.
		put("trace.share_est_pct", 100*next*vals["pipeline.fetched"]/pipeNs)
	}
	return probeService(scratch, reqs, results, put)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
