package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// newTestServer wires a real engine (real simulations, tiny windows)
// behind httptest.
func newTestServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	return newTestServerDir(t, t.TempDir())
}

// newTestServerDir is newTestServer over the disk cache in dir.
func newTestServerDir(t *testing.T, dir string) (*httptest.Server, *Engine) {
	t.Helper()
	cache, err := NewCache(64, dir)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{Workers: 2, QueueDepth: 16, Cache: cache})
	ts := httptest.NewServer(NewServer(e))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	return ts, e
}

const tinyCell = `{"benchmark":"eon","plan":"issue-queue-constrained","techniques":{"iq":"activity-toggling"},"cycles":120000,"warmup":20000}`

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServerCellLifecycle is the end-to-end contract the CI job also
// checks over a real daemon: submit a cell twice, the second response is
// a cache hit with byte-identical result JSON.
func TestServerCellLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)

	code, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", tinyCell)
	if code != http.StatusOK {
		t.Fatalf("first submit: %d %s", code, body)
	}
	var st1 JobStatus
	if err := json.Unmarshal(body, &st1); err != nil {
		t.Fatal(err)
	}
	if st1.State != JobDone || st1.Cached || len(st1.Result) == 0 {
		t.Fatalf("first submit status: %+v", st1)
	}

	code, body = postJSON(t, ts.URL+"/v1/jobs?wait=1", tinyCell)
	if code != http.StatusOK {
		t.Fatalf("second submit: %d %s", code, body)
	}
	var st2 JobStatus
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.Key != st1.Key {
		t.Fatalf("second submit not a cache hit: %+v", st2)
	}
	if string(st1.Result) != string(st2.Result) {
		t.Error("result JSON not byte-identical across submissions")
	}

	// GET endpoints.
	code, body = get(t, ts.URL+"/v1/jobs/"+st1.Key)
	if code != http.StatusOK || !strings.Contains(string(body), `"state":"done"`) {
		t.Fatalf("GET job: %d %s", code, body)
	}
	code, res1 := get(t, ts.URL+"/v1/jobs/"+st1.Key+"/result")
	if code != http.StatusOK || string(res1) != string(st1.Result) {
		t.Fatalf("GET result: %d, bytes differ from submit response", code)
	}
	code, rep := get(t, ts.URL+"/v1/jobs/"+st1.Key+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET report: %d %s", code, rep)
	}
	for _, want := range []string{"benchmark    eon", "IPC", "per-block temperatures"} {
		if !strings.Contains(string(rep), want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}

	// Metrics counted one hit, one run.
	code, mb := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET metrics: %d", code)
	}
	var m Metrics
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits < 1 || m.JobsCompleted != 1 {
		t.Errorf("metrics = %+v, want >=1 cache hit and exactly 1 completed run", m)
	}
}

func TestServerAsyncSubmitAndPoll(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/jobs", tinyCell)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("async submit: %d %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body = get(t, ts.URL+"/v1/jobs/"+st.Key)
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone {
			break
		}
		if st.State == JobFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s (HTTP %d)", st.State, code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(st.Result) == 0 {
		t.Fatal("done job has no result")
	}
}

// TestServerBatchLifecycle submits a matrix to a daemon, then to a
// second daemon over the same cache directory, which serves every cell
// from the cache. Both reports are the bytes experiments.Run renders.
func TestServerBatchLifecycle(t *testing.T) {
	dir := t.TempDir()
	spec := experiments.Fig6(120_000, "eon")
	spec.Warmup = 20_000
	direct, err := experiments.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"experiment":"fig6","benchmarks":["eon"],"cycles":120000,"warmup":20000}`
	for pass := 0; pass < 2; pass++ {
		ts, _ := newTestServerDir(t, dir)
		code, resp := postJSON(t, ts.URL+"/v1/jobs?wait=1", body)
		if code != http.StatusOK {
			t.Fatalf("pass %d: batch submit: %d %s", pass, code, resp)
		}
		var st BatchStatus
		if err := json.Unmarshal(resp, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone || len(st.Cells) != 2 || st.Experiment != "fig6" {
			t.Fatalf("pass %d: batch status: %+v", pass, st)
		}
		for _, c := range st.Cells {
			if c.Cached != (pass == 1) {
				t.Errorf("pass %d: cell %s/%s cached=%v", pass, c.Benchmark, c.Variant, c.Cached)
			}
		}
		code, rep := get(t, ts.URL+"/v1/jobs/"+st.Key+"/report")
		if code != http.StatusOK || string(rep) != direct.Report() {
			t.Fatalf("pass %d: batch report %d differs from experiments.Run:\n%s--- direct ---\n%s", pass, code, rep, direct.Report())
		}
	}
	if rep := direct.Report(); !strings.Contains(rep, "Issue-queue constrained") || !strings.Contains(rep, "speedup") {
		t.Errorf("figure report missing its title or speedup summary:\n%s", rep)
	}
}

func TestServerErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad JSON", "POST", "/v1/jobs", "{nope", http.StatusBadRequest},
		{"unknown benchmark", "POST", "/v1/jobs", `{"benchmark":"doom3"}`, http.StatusBadRequest},
		{"unknown experiment", "POST", "/v1/jobs", `{"experiment":"fig9"}`, http.StatusBadRequest},
		{"repeated benchmark", "POST", "/v1/jobs", `{"experiment":"fig6","benchmarks":["gzip","gzip"]}`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/jobs", `{"benchmark":"eon","bogus":1}`, http.StatusBadRequest},
		{"unknown job", "GET", "/v1/jobs/" + strings.Repeat("ab", 32), "", http.StatusNotFound},
		{"unknown result", "GET", "/v1/jobs/" + strings.Repeat("ab", 32) + "/result", "", http.StatusNotFound},
		{"unknown report", "GET", "/v1/jobs/" + strings.Repeat("ab", 32) + "/report", "", http.StatusNotFound},
	}
	for _, c := range cases {
		var code int
		var body []byte
		if c.method == "POST" {
			code, body = postJSON(t, ts.URL+c.path, c.body)
		} else {
			code, body = get(t, ts.URL+c.path)
		}
		if code != c.want {
			t.Errorf("%s: %d (%s), want %d", c.name, code, body, c.want)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: error body missing message: %s", c.name, body)
		}
	}
}

func TestServerQueueFullIs429(t *testing.T) {
	cache, _ := NewCache(4, "")
	e := NewEngine(EngineConfig{Workers: 1, QueueDepth: 1, Cache: cache})
	release := make(chan struct{})
	e.run = func(ctx context.Context, req Request) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return []byte(`{"benchmark":"x","blocks":[],"avg_temp_k":[],"peak_temp_k":[]}`), nil
	}
	ts := httptest.NewServer(NewServer(e))
	defer func() {
		close(release)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	}()

	benches := []string{"eon", "gzip", "art", "mesa", "parser"}
	got429 := false
	for _, b := range benches {
		code, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(`{"benchmark":%q}`, b))
		if code == http.StatusTooManyRequests {
			got429 = true
			if !strings.Contains(string(body), "queue full") {
				t.Errorf("429 body: %s", body)
			}
			break
		}
	}
	if !got429 {
		t.Error("no submission was rejected with 429 despite queue depth 1")
	}
}

func TestServerHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

// TestServerReadyz: readiness is distinct from liveness — it drops to
// 503 the moment a drain begins, while /healthz keeps answering 200.
func TestServerReadyz(t *testing.T) {
	ts, e := newTestServer(t)
	code, body := get(t, ts.URL+"/readyz")
	if code != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("readyz before drain: %d %s", code, body)
	}

	e.BeginDrain()
	code, body = get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz during drain: %d %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz dropped during drain: %d", code)
	}
	var m Metrics
	if _, body := get(t, ts.URL+"/metrics"); json.Unmarshal(body, &m) != nil || m.Ready {
		t.Errorf("metrics ready flag during drain: %+v", m.Ready)
	}
}

// TestServerQuarantinedJobIs500: a quarantined job answers like a
// failure, with the quarantine reason and stack in the error field.
func TestServerQuarantinedJobIs500(t *testing.T) {
	cache, err := NewCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastRetries(EngineConfig{Workers: 1, QueueDepth: 8, Cache: cache, quarantineAfter: 1})
	cfg.runFunc = func(ctx context.Context, req Request) ([]byte, error) {
		panic("poisoned input")
	}
	e := NewEngine(cfg)
	ts := httptest.NewServer(NewServer(e))
	t.Cleanup(func() {
		ts.Close()
		shutdownEngine(t, e)
	})

	code, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", tinyCell)
	if code != http.StatusInternalServerError {
		t.Fatalf("quarantined job: %d %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobQuarantined || !strings.Contains(st.Error, "quarantined after 1 panics") {
		t.Fatalf("status = %+v", st)
	}
	// Polling the job again returns the same quarantined answer.
	code, _ = get(t, ts.URL+"/v1/jobs/"+st.Key)
	if code != http.StatusInternalServerError {
		t.Errorf("poll of quarantined job: %d", code)
	}
}
