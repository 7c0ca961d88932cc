package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json an A/B comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two files of summary lines, base and head, whose
// n-th lines come from the n-th pair of runs (same workload and seed). For
// each gated metric it prints both sides' median and quartiles, the share
// of pairs head wins, and a verdict under the metric's bound:
//
//   - unresolved: base's own quartile spread exceeds the bound, unless
//     every head run beats every base run;
//   - regression: head's median is worse than base's by more than the bound;
//   - gain: head wins at least nine tenths of the pairs and the medians
//     differ by more than base's quartile spread;
//   - no change: otherwise.
func compareMain(args []string, root string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: pipebench -compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	base, err1 := readSummaries(args[0])
	head, err2 := readSummaries(args[1])
	raw, err3 := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	var spec benchmarkSpec
	if err3 == nil {
		err3 = json.Unmarshal(raw, &spec)
	}
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			fmt.Fprintf(stderr, "pipebench: %v\n", err)
			return 1
		}
	}
	if len(base) != len(head) || len(base) < 2 {
		fmt.Fprintf(stderr, "pipebench: need the same number (>= 2) of base and head runs, have %d and %d\n", len(base), len(head))
		return 1
	}
	for i := range base {
		if !base[i].Correct || !head[i].Correct {
			fmt.Fprintf(stdout, "pair %d: a run was not correct (base %v, head %v)\n", i+1, base[i].Correct, head[i].Correct)
		}
	}
	fmt.Fprintf(stdout, "%d pairs\n%-16s %-32s %-32s %6s %8s  %s\n", len(base), "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "delta", "verdict")
	for _, m := range spec.EndToEnd {
		b, h := metricValues(base, m.Name), metricValues(head, m.Name)
		lower := m.Better == "lower"
		bq1, bmed, bq3 := quartiles(b)
		hq1, hmed, hq3 := quartiles(h)
		wins := 0
		for i := range b {
			if (lower && h[i] < b[i]) || (!lower && h[i] > b[i]) {
				wins++
			}
		}
		worse := (hmed - bmed) / bmed // share by which head is worse
		if !lower {
			worse = -worse
		}
		verdict := "no change"
		switch {
		case (bq3-bq1)/bmed > m.Bound && !separated(b, h, lower):
			verdict = "unresolved"
		case worse > m.Bound:
			verdict = "REGRESSION"
		case float64(wins) >= 0.9*float64(len(b)) && math.Abs(hmed-bmed) > bq3-bq1:
			verdict = "gain"
		}
		fmt.Fprintf(stdout, "%-16s %10.4g [%8.4g, %8.4g]  %10.4g [%8.4g, %8.4g]  %2d/%-2d %+7.1f%%  %s\n",
			m.Name, bmed, bq1, bq3, hmed, hq1, hq3, wins, len(b), 100*worse, verdict)
	}
	return 0
}

// separated reports whether every head value beats every base value.
func separated(base, head []float64, lower bool) bool {
	for _, b := range base {
		for _, h := range head {
			if (lower && h >= b) || (!lower && h <= b) {
				return false
			}
		}
	}
	return true
}

func readSummaries(path string) ([]summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []summary
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var s summary
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func metricValues(ss []summary, name string) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.Metrics[name].Value
	}
	return out
}
