package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read stdout while run() is still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon runs the daemon on a free port and returns its base URL,
// its live stdout, and a stop function that triggers the drain and
// returns the exit code.
func startDaemon(t *testing.T, args ...string) (string, *syncBuffer, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout := &syncBuffer{}
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), stdout, &stderr, ctx)
	}()

	// Wait for the startup line to learn the port.
	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stderr: %s", stderr.String())
		}
		out := stdout.String()
		if i := strings.Index(out, "http://"); i >= 0 {
			url = strings.TrimSpace(strings.SplitN(out[i:], "\n", 2)[0])
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return url, stdout, func() int {
		cancel()
		select {
		case code := <-exit:
			return code
		case <-time.After(60 * time.Second):
			t.Fatal("daemon did not exit after cancellation")
			return -1
		}
	}
}

// TestDaemonServeSubmitDrain boots the daemon, checks liveness, runs a
// tiny cell twice (second must be a cache hit), then drains cleanly.
func TestDaemonServeSubmitDrain(t *testing.T) {
	url, _, stop := startDaemon(t, "-workers", "2", "-cache-dir", t.TempDir())

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"benchmark":"eon","cycles":100000,"warmup":10000}`
	var results [2]string
	for i := range results {
		resp, err := http.Post(url+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, b)
		}
		results[i] = string(b)
	}
	if !strings.Contains(results[1], `"cached":true`) {
		t.Errorf("second submission not served from cache: %s", results[1])
	}

	if code := stop(); code != 0 {
		t.Fatalf("exit code %d after drain, want 0", code)
	}
}

// TestDaemonDrainWaitsForRunningJob sends SIGTERM-equivalent
// cancellation while a job is running and expects the job to finish
// within the drain deadline and the process to exit 0.
func TestDaemonDrainWaitsForRunningJob(t *testing.T) {
	url, _, stop := startDaemon(t, "-workers", "1", "-drain-timeout", "60s")

	// A meatier job so the drain genuinely overlaps it.
	body := `{"benchmark":"eon","cycles":2000000,"warmup":100000}`
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}

	if code := stop(); code != 0 {
		t.Fatalf("exit code %d, want 0 (drain should let the running job finish)", code)
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	// The retry, quarantine and breaker settings are the engine's own
	// defaults, not flags.
	for _, flag := range []string{"-no-such-flag", "-retries", "-retry-base", "-quarantine-after",
		"-breaker-errors", "-breaker-latency", "-breaker-cooldown"} {
		if code := run([]string{flag, "1"}, &out, &errOut, context.Background()); code != 2 {
			t.Errorf("unknown flag %s: exit %d, want 2", flag, code)
		}
	}
	if code := run([]string{"stray"}, &out, &errOut, context.Background()); code != 2 {
		t.Errorf("stray argument: exit %d, want 2", code)
	}
	if code := run([]string{"-addr", "999.999.999.999:1"}, &out, &errOut, context.Background()); code != 1 {
		t.Errorf("bad address: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "pipethermd:") {
		t.Errorf("stderr missing prefix: %s", errOut.String())
	}
}

// TestDaemonJournalReplayAcrossRestart is the in-process version of
// scripts/chaos_e2e.sh: a daemon is killed mid-job (the drain deadline
// expires, so the job is interrupted exactly as a crash would leave it),
// and a second daemon over the same journal and cache directories
// replays and completes it without the client resubmitting anything.
func TestDaemonJournalReplayAcrossRestart(t *testing.T) {
	journalDir, cacheDir := t.TempDir(), t.TempDir()
	common := []string{"-workers", "1", "-journal-dir", journalDir, "-cache-dir", cacheDir}

	// Daemon 1: submit a meaty job asynchronously, then "crash" — the
	// 50ms drain deadline interrupts it long before it can finish.
	url, _, stop := startDaemon(t, append(common, "-drain-timeout", "50ms")...)
	body := `{"benchmark":"eon","cycles":2000000,"warmup":100000}`
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(b, &st); err != nil || st.Key == "" {
		t.Fatalf("no job key in %s: %v", b, err)
	}
	if code := stop(); code != 1 {
		t.Fatalf("interrupted drain exit code %d, want 1", code)
	}

	// Daemon 2: same directories. The journal replay line reports the
	// interrupted job, and polling its key — never resubmitted by us —
	// eventually answers done.
	url2, stdout2, stop2 := startDaemon(t, common...)
	if out := stdout2.String(); !strings.Contains(out, "1 pending jobs resubmitted") {
		t.Fatalf("no replay reported on restart:\n%s", out)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("replayed job never completed")
		}
		resp, err := http.Get(url2 + "/v1/jobs/" + st.Key)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && strings.Contains(string(b), `"state":"done"`) {
			break
		}
		if resp.StatusCode == http.StatusInternalServerError {
			t.Fatalf("replayed job failed: %s", b)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Readiness recovered once the replay settled.
	resp, err = http.Get(url2 + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz after replay: %d", resp.StatusCode)
	}
	if code := stop2(); code != 0 {
		t.Fatalf("clean drain exit code %d, want 0", code)
	}
}
