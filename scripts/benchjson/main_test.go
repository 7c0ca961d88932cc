package main

import "testing"

// TestParseSample reads the memory columns of a plain line and of one
// with a b.ReportMetric value between ns/op and B/op.
func TestParseSample(t *testing.T) {
	for _, tc := range []struct {
		line string
		want sample
	}{
		{"BenchmarkSimShortCell-2   \t     100\t  19904918 ns/op\t 1496691 B/op\t     813 allocs/op",
			sample{Name: "BenchmarkSimShortCell", Iterations: 100, NsPerOp: 19904918, BytesPerOp: 1496691, AllocsPerOp: 813}},
		{"BenchmarkEngineThroughput/hit/sub1-2         \t  529204\t      2433 ns/op\t    410973 jobs/s\t     824 B/op\t      11 allocs/op",
			sample{Name: "BenchmarkEngineThroughput/hit/sub1", Iterations: 529204, NsPerOp: 2433, BytesPerOp: 824, AllocsPerOp: 11}},
		{"BenchmarkPipelineCycle \t 2490871\t       832.9 ns/op",
			sample{Name: "BenchmarkPipelineCycle", Iterations: 2490871, NsPerOp: 832.9}},
	} {
		got, ok := parseSample(tc.line)
		if !ok || got != tc.want {
			t.Errorf("parseSample(%q) = %+v, %v; want %+v", tc.line, got, ok, tc.want)
		}
	}
	if _, ok := parseSample("PASS"); ok {
		t.Error("parseSample accepted a non-result line")
	}
}
