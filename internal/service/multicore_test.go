package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/multicore"
)

// mcParams is a real multicore run small enough for the test suite: two
// cores, a four-task queue, well under a second of wall time.
func mcParams() *multicore.Params {
	return &multicore.Params{
		Cores:      2,
		Scheduler:  config.SchedCoolestFirst,
		Cycles:     300_000,
		Warmup:     10_000,
		Tasks:      4,
		TaskCycles: 60_000,
		Seed:       7,
	}
}

// TestMulticoreRequestKeys pins the cache-compatibility contract of the
// multicore job kind: plain cell requests keep their exact canonical
// bytes (the multicore field must not appear), multicore requests hash
// on their normalized params, and the two shapes can never collide.
func TestMulticoreRequestKeys(t *testing.T) {
	cell, err := cellReq("eon").Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cell), "multicore") {
		t.Errorf("cell canonical form grew a multicore field: %s", cell)
	}

	mc := Request{Multicore: mcParams()}
	k1, err := mc.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Request{Multicore: mcParams()}.Key()
	if k1 != k2 || !isKey(k1) {
		t.Fatalf("multicore keys %q / %q not stable", k1, k2)
	}
	ck, _ := cellReq("eon").Key()
	if k1 == ck {
		t.Error("multicore and cell requests share a key")
	}
	// Explicit defaults and omitted fields share a key, as for cells.
	explicit := mcParams()
	norm := explicit.Normalized()
	ke, _ := Request{Multicore: explicit}.Key()
	kn, _ := Request{Multicore: &norm}.Key()
	if ke != kn {
		t.Error("normalized and raw multicore params hash differently")
	}
	// Different schedulers are different jobs.
	other := mcParams()
	other.Scheduler = config.SchedRoundRobin
	ko, _ := Request{Multicore: other}.Key()
	if ko == k1 {
		t.Error("different schedulers share a key")
	}
}

func TestMulticoreRequestValidate(t *testing.T) {
	if err := (Request{Multicore: mcParams()}).Validate(); err != nil {
		t.Errorf("valid multicore request rejected: %v", err)
	}
	mixed := Request{Benchmark: "eon", Multicore: mcParams()}
	if err := mixed.Validate(); err == nil {
		t.Error("request mixing cell and multicore shapes accepted")
	}
	bad := mcParams()
	bad.Cores = 999
	if err := (Request{Multicore: bad}).Validate(); err == nil {
		t.Error("out-of-range core count accepted")
	}
}

// TestServerMulticoreLifecycle drives the multicore job kind end to end
// over HTTP: submit, cached resubmit with byte-identical result JSON,
// rendered report, and the aggregated /metrics section.
func TestServerMulticoreLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"multicore":{"cores":2,"scheduler":"coolest-first","cycles":300000,` +
		`"warmup":10000,"tasks":4,"task_cycles":60000,"seed":7}}`

	code, resp := postJSON(t, ts.URL+"/v1/jobs?wait=1", body)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var st1 JobStatus
	if err := json.Unmarshal(resp, &st1); err != nil {
		t.Fatal(err)
	}
	if st1.State != JobDone || st1.Cached {
		t.Fatalf("first submit status: %+v", st1)
	}
	var r multicore.Result
	if err := json.Unmarshal(st1.Result, &r); err != nil {
		t.Fatal(err)
	}
	if r.Cores != 2 || r.Scheduler != "coolest-first" || len(r.PerCore) != 2 {
		t.Fatalf("unexpected result shape: %+v", r)
	}

	code, resp = postJSON(t, ts.URL+"/v1/jobs?wait=1", body)
	var st2 JobStatus
	if code != http.StatusOK || json.Unmarshal(resp, &st2) != nil {
		t.Fatalf("resubmit: %d %s", code, resp)
	}
	if !st2.Cached || st2.Key != st1.Key {
		t.Fatalf("resubmit not a cache hit: %+v", st2)
	}
	if string(st1.Result) != string(st2.Result) {
		t.Error("result JSON not byte-identical across submissions")
	}

	code, rep := get(t, ts.URL+"/v1/jobs/"+st1.Key+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET report: %d %s", code, rep)
	}
	for _, want := range []string{"scheduler coolest-first", "aggregate IPC", "hottest"} {
		if !strings.Contains(string(rep), want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}

	code, mb := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET metrics: %d", code)
	}
	var m Metrics
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	// One fresh run folded in; the cache hit did not double-count.
	if m.Multicore.Runs != 1 {
		t.Errorf("multicore runs = %d, want 1", m.Multicore.Runs)
	}
	if len(m.Multicore.CoreUtilization) != 2 || len(m.Multicore.CorePeakTempK) != 2 {
		t.Errorf("per-core metrics not sized to the run: %+v", m.Multicore)
	}
	for i, u := range m.Multicore.CoreUtilization {
		if u < 0 || u > 1 {
			t.Errorf("core %d utilization %f out of [0,1]", i, u)
		}
	}
	for i, p := range m.Multicore.CorePeakTempK {
		if p < m.Multicore.CoreAvgTempK[i] {
			t.Errorf("core %d peak %f below its average %f", i, p, m.Multicore.CoreAvgTempK[i])
		}
	}
}

// TestCacheMulticoreDiskHit: a real multicore result read back through a
// fresh cache on the same directory — as after an LRU eviction or a
// restart — is a disk hit with its exact bytes, not a corrupt entry.
func TestCacheMulticoreDiskHit(t *testing.T) {
	r, err := multicore.Run(context.Background(), *mcParams())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	key, err := Request{Multicore: mcParams()}.Key()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Put(key, data)

	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("multicore entry not served from disk (hit=%v)", ok)
	}
	if st := c.Stats(); st.DiskHits != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 disk hit, 0 corrupt", st)
	}
}
