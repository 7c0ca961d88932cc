package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %v", name, nameRE)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: unit %q does not match %v", name, unit, unitRE)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
		check(d.name, d.unit)
	}
	for name, unit := range infoUnits {
		if seen[name] {
			t.Errorf("info metric %s is also gated", name)
		}
		check(name, unit)
	}
	for w := range workloads {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q does not match %v", w, nameRE)
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics this command
// reports, in the same order with the same units.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, command workloads %v", names, want)
	}
}

func TestReportLastLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		r := newReport()
		r.attempted = 3
		for _, d := range defs {
			r.put(d.name, 1.5)
		}
		r.put("ops", 3)
		var buf bytes.Buffer
		if err := r.print(&buf, traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		var keys []string
		for k := range last {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, " ") != "attempted correct failed metrics" {
			t.Errorf("summary keys %v", keys)
		}
		var sum summary
		json.Unmarshal([]byte(lines[len(lines)-1]), &sum)
		if !sum.Correct || sum.Attempted != 3 || len(sum.Metrics) != len(defs) {
			t.Errorf("traced=%v: summary %+v", traced, sum)
		}
		if !strings.Contains(buf.String(), "info   ops") {
			t.Error("information lines are not printed")
		}
	}

	r := newReport()
	r.attempted = 1
	var buf bytes.Buffer
	r.print(&buf, false)
	if strings.Contains(buf.String(), `"correct":true`) {
		t.Error("a run missing its metrics was reported correct")
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s []float64) string {
		var b bytes.Buffer
		for _, v := range p50s {
			s := summary{Correct: true, Attempted: 1, Metrics: map[string]metricJSON{}}
			for _, d := range endToEnd {
				s.Metrics[d.name] = metricJSON{Value: 10, Unit: d.unit}
			}
			s.Metrics["latency_p50_ms"] = metricJSON{Value: v, Unit: "ms"}
			line, _ := json.Marshal(s)
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100})
	for _, c := range []struct {
		head []float64
		want string
	}{
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "gain"},
		{[]float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, "REGRESSION"},
		{[]float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, "no change"},
	} {
		var out, errs bytes.Buffer
		if code := compareMain([]string{base, write("head", c.head)}, filepath.Join("..", "..", ".."), &out, &errs); code != 0 {
			t.Fatalf("compare exited %d: %s", code, errs.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "latency_p50_ms") && !strings.HasSuffix(line, c.want) {
				t.Errorf("head %v: %q, want verdict %q", c.head[:2], line, c.want)
			}
		}
	}
}
