package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunHappyPath(t *testing.T) {
	code, out, errOut := runCLI("-bench", "eon", "-cycles", "100000", "-toggle", "-temps")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"benchmark    eon", "IPC", "per-block temperatures"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Without -temps the summary prints alone.
	code, out, errOut = runCLI("-bench", "eon", "-cycles", "100000")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "hottest") || strings.Contains(out, "per-block temperatures") {
		t.Errorf("output without -temps is not the summary alone:\n%s", out)
	}
}

// TestRunRejectsUnknownNames pins the usage-error contract: unknown
// benchmark / plan / policy names exit 2 with a clean one-line message,
// never a panic or a silently-ignored flag.
func TestRunRejectsUnknownNames(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"benchmark", []string{"-bench", "doom3"}, "doom3"},
		{"plan", []string{"-plan", "cache"}, `unknown plan "cache"`},
		{"alu policy", []string{"-alu", "turbo"}, `unknown ALU policy "turbo"`},
		{"rf mapping", []string{"-rfmap", "zigzag"}, `unknown register-file mapping "zigzag"`},
		{"stray argument", []string{"eon"}, "unexpected argument"},
	}
	for _, c := range cases {
		code, _, errOut := runCLI(c.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", c.name, code, errOut)
		}
		if !strings.Contains(errOut, c.want) || !strings.Contains(errOut, "pipetherm:") {
			t.Errorf("%s: stderr %q missing %q", c.name, errOut, c.want)
		}
	}
}

func TestRunUnknownFlag(t *testing.T) {
	if code, _, _ := runCLI("-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
