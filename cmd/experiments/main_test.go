package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func runCLI(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRunRejectsUnknownNames pins the fail-fast contract: typos in
// experiment or benchmark names exit 2 before any simulation starts.
func TestRunRejectsUnknownNames(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"experiment", []string{"fig9"}, `unknown experiment "fig9"`},
		{"experiment among valid", []string{"table1", "firg6"}, `unknown experiment "firg6"`},
		{"benchmark", []string{"-benchmarks", "eon,doom3", "fig6"}, "doom3"},
		{"scheduler", []string{"-scheduler", "coolest", "multicore"}, `unknown scheduler "coolest"`},
		{"cores", []string{"-cores", "999", "multicore"}, "cores 999 out of range"},
	}
	for _, c := range cases {
		code, out, errOut := runCLI(c.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", c.name, code, errOut)
		}
		if !strings.Contains(errOut, c.want) {
			t.Errorf("%s: stderr %q missing %q", c.name, errOut, c.want)
		}
		if out != "" {
			t.Errorf("%s: stdout not empty despite usage error:\n%s", c.name, out)
		}
	}
	for _, flag := range []string{"-no-such-flag", "-cache-dir"} {
		if code, _, _ := runCLI(flag, "dir", "fig6"); code != 2 {
			t.Errorf("unknown flag %s: exit %d, want 2", flag, code)
		}
	}
}

func TestRunStaticTables(t *testing.T) {
	code, out, errOut := runCLI("-quiet", "table1", "table2", "table3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"Table 1", "Table 2", "Table 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestRunMulticore drives the multicore experiment end to end through
// the CLI at a short horizon with a scheduler subset.
func TestRunMulticore(t *testing.T) {
	code, out, errOut := runCLI("-quiet", "-cycles", "1200000", "-cores", "4",
		"-scheduler", "roundrobin,coolest-first", "multicore")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"Multi-core scheduling", "roundrobin", "coolest-first", "cooler"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "threshold-migrate") {
		t.Error("scheduler subset was ignored")
	}
}
