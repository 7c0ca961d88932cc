// Command benchjson converts raw `go test -bench` output into the
// BENCH_pipeline.json record written by scripts/bench.sh: parsed
// per-sample numbers for machines, plus the verbatim text (benchstat's
// input format) so `benchstat` can diff two records directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one benchmark line.
type sample struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type record struct {
	Generated string              `json:"generated"`
	GoVersion string              `json:"go_version"`
	GOOS      string              `json:"goos"`
	GOARCH    string              `json:"goarch"`
	CPU       string              `json:"cpu,omitempty"`
	Samples   map[string][]sample `json:"samples"`
	Benchstat string              `json:"benchstat"`

	// Baseline is a hand-curated record of a historical measurement
	// (currently the pre-stats-bus per-event-deposit meter). It is
	// carried over verbatim from the previous BENCH file via -prev so
	// regeneration never loses it; Summary is recomputed against it.
	Baseline json.RawMessage `json:"baseline,omitempty"`
	Summary  json.RawMessage `json:"summary,omitempty"`
}

// baselineSamples is the subset of the baseline section the summary
// computation needs.
type baselineSamples struct {
	Samples map[string][]sample `json:"samples"`
}

func median(ss []sample) float64 {
	ns := make([]float64, len(ss))
	for i, s := range ss {
		ns[i] = s.NsPerOp
	}
	sort.Float64s(ns)
	if n := len(ns); n%2 == 1 {
		return ns[n/2]
	} else {
		return (ns[n/2-1] + ns[n/2]) / 2
	}
}

// A result line is name, iterations and ns/op, then any b.ReportMetric
// values (BenchmarkEngineThroughput's jobs/s), then -benchmem's B/op and
// allocs/op; so the memory columns are matched wherever they sit.
var (
	benchLine   = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)
	bytesPerOp  = regexp.MustCompile(`\s(\d+) B/op`)
	allocsPerOp = regexp.MustCompile(`\s(\d+) allocs/op`)
)

// parseSample parses one `go test -bench` result line.
func parseSample(line string) (sample, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return sample{}, false
	}
	s := sample{Name: m[1]}
	s.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
	s.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
	if b := bytesPerOp.FindStringSubmatch(line); b != nil {
		s.BytesPerOp, _ = strconv.ParseInt(b[1], 10, 64)
	}
	if a := allocsPerOp.FindStringSubmatch(line); a != nil {
		s.AllocsPerOp, _ = strconv.ParseInt(a[1], 10, 64)
	}
	return s, true
}

func main() {
	prev := flag.String("prev", "", "previous BENCH json; its baseline section is carried over and the summary recomputed")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchjson [-prev OLD.json] RAW_BENCH_OUTPUT")
		os.Exit(2)
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rec := record{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Samples:   map[string][]sample{},
		Benchstat: string(raw),
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rec.CPU = strings.TrimSpace(cpu)
			continue
		}
		if s, ok := parseSample(line); ok {
			rec.Samples[s.Name] = append(rec.Samples[s.Name], s)
		}
	}
	if *prev != "" {
		prevRaw, err := os.ReadFile(*prev)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var old record
		if err := json.Unmarshal(prevRaw, &old); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rec.Baseline = old.Baseline
		if len(old.Baseline) > 0 {
			var base baselineSamples
			if err := json.Unmarshal(old.Baseline, &base); err == nil {
				summary := map[string]any{}
				if bs, cs := base.Samples["BenchmarkPipelineCycle"], rec.Samples["BenchmarkPipelineCycle"]; len(bs) > 0 && len(cs) > 0 {
					bm, cm := median(bs), median(cs)
					summary["pipeline_cycle_median_ns_per_op"] = map[string]float64{
						"baseline": bm,
						"current":  cm,
					}
					summary["cycles_per_sec_gain_pct"] = float64(int(bm/cm*1000-1000)) / 10
				}
				// The service-layer A/B: jobs/sec speedup on the cache-hit
				// burst regime at >=16 submitters (workers are >=16 in the
				// benchmark) versus the recorded pre-shard baseline.
				if bs, cs := base.Samples["BenchmarkEngineThroughput/hit/sub16"], rec.Samples["BenchmarkEngineThroughput/hit/sub16"]; len(bs) > 0 && len(cs) > 0 {
					bm, cm := median(bs), median(cs)
					summary["engine_hit_sub16_median_ns_per_op"] = map[string]float64{
						"baseline": bm,
						"current":  cm,
					}
					summary["engine_hit_sub16_jobs_per_sec_speedup_x"] = float64(int(bm/cm*100)) / 100
				}
				if len(summary) > 0 {
					if rec.Summary, err = json.Marshal(summary); err != nil {
						fmt.Fprintln(os.Stderr, "benchjson:", err)
						os.Exit(1)
					}
				}
			}
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
