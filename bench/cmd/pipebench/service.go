package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// hitRate is the service-hit open-loop rate: far enough under saturation
// that the daemon keeps up and the run measures latency, not a growing
// backlog, even while the host runs slow. At 4000 req/s, on the reference
// VM's slow stretches, the daemon alone used 0.16 ms of CPU per request,
// two thirds of one of the two CPUs; a stall of the host then left a
// backlog the two connections were slow to drain, and one run in forty
// read a median latency of 256 ms against 0.75 ms for the others.
const hitRate = 2000

// serviceWarmup precedes each service measurement and is discarded: it
// fills the LRU (hit) and pays lazy initialisation (miss).
const serviceWarmup = 2 * time.Second

// missCheckEvery: one in this many miss results is recomputed in-process
// after the measurement and compared byte for byte.
const missCheckEvery = 64

// missDigestRequests is how many leading miss results the digest covers;
// they complete inside the warm-up on any machine.
const missDigestRequests = 32

// missConns is the service-miss client's connection count. One request
// at a time leaves a CPU free for the client and for other tenants of the
// machine, which keeps the run-to-run spread of the miss latency down.
const missConns = 1

// jobReply is the part of a job status the checks read.
type jobReply struct {
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		},
	}
}

// post submits a job body with ?wait=1 and returns the reply.
func post(hc *http.Client, base string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serviceRun is the state one service workload shares across its phases.
type serviceRun struct {
	e        *env
	rep      *report
	hc       *http.Client
	d        *daemon
	rec      *recorder
	rejected atomic.Int64 // 429 replies seen while measuring
}

func newServiceRun(e *env, rep *report) *serviceRun {
	s := &serviceRun{e: e, rep: rep, hc: newHTTPClient()}
	if e.trace {
		s.rec = newRecorder()
	}
	return s
}

func (s *serviceRun) dirs() (cache, journal string) {
	return filepath.Join(s.e.runDir, "cache"), filepath.Join(s.e.runDir, "journal")
}

// warmupCell is the job that ends set-up i: a gzip cell of about 60 ms on
// the reference machine, distinct per set-up so it always misses. Its
// warmup lies outside every workload's range, so it never shares a key
// with a measured payload.
func warmupCell(i int) cell {
	sh := paperShapes()[0]
	return cell{Bench: "gzip", Plan: sh.plan, Tech: sh.tech, Cycles: 250_000, Warmup: 25_000 + i}
}

// setup starts the daemon setupRuns times, calling before ahead of each
// start, and keeps the last one running. A set-up lasts from exec until
// the daemon has answered /readyz and then computed one warm-up cell.
func (s *serviceRun) setup(before func() error) error {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if err := before(); err != nil {
			return err
		}
		body, err := json.Marshal(warmupCell(i).request())
		if err != nil {
			return err
		}
		cache, journal := s.dirs()
		t0 := time.Now()
		d, err := startDaemon(s.e, s.hc, cache, journal)
		if err != nil {
			return err
		}
		code, b, err := post(s.hc, d.base, body)
		took := time.Since(t0)
		var r jobReply
		if err == nil && (code != http.StatusOK || json.Unmarshal(b, &r) != nil || r.Cached || r.State != "done") {
			err = fmt.Errorf("warm-up job: HTTP %d, %.200s", code, b)
		}
		if err != nil {
			d.stop()
			return err
		}
		setups = append(setups, took.Seconds())
		if i < setupRuns-1 {
			if err := d.stop(); err != nil {
				return fmt.Errorf("pipethermd exit: %w", err)
			}
			s.hc.CloseIdleConnections()
		}
		s.d = d
	}
	s.rep.put("setup_s", median(setups))
	s.rep.put("setup_runs", float64(len(setups)))
	s.rep.put("journal.replay_records", float64(s.d.replayed))
	return nil
}

// send posts body for request i on lane, records a client span for every
// other request when tracing (trace id = request index), and returns the
// reply when the daemon answered 200.
func (s *serviceRun) send(lane, i int, body []byte) ([]byte, bool) {
	t0 := time.Now()
	code, b, err := post(s.hc, s.d.base, body)
	if s.rec != nil && i%2 == 1 {
		s.rec.add(span{Name: "http.post", TID: lane, Trace: int64(i)}, t0, time.Now())
	}
	if code == http.StatusTooManyRequests {
		s.rejected.Add(1)
	}
	return b, err == nil && code == http.StatusOK
}

// measure reports the end-to-end metrics of the samples due in the
// measured window, the client-side layer metrics, and the daemon's CPU,
// RSS and counters; it stops the daemon.
func (s *serviceRun) measure(ss []sample, from, to time.Time, cpu time.Duration, rss float64) (err error) {
	defer func() {
		if serr := s.d.stop(); serr != nil && err == nil {
			err = fmt.Errorf("pipethermd exit: %w", serr)
		}
	}()
	lat, rtt, _, failed := window(ss, from, to)
	d := summarize(lat)
	var last time.Time
	for _, x := range ss {
		if x.ok && !x.due.Before(from) && x.due.Before(to) && x.done.After(last) {
			last = x.done
		}
	}
	rep := s.rep
	rep.attempted, rep.failed = d.N, failed
	rep.put("latency_p50_ms", d.P50)
	rep.put("latency_tail_ms", d.Tail)
	rep.put("latency_tail_pct", d.TailP)
	rep.put("ops", float64(d.N))
	rep.put("ops_per_s", float64(d.N-failed)/last.Sub(from).Seconds())
	rep.put("cpu_ms_per_op", millis(cpu)/float64(len(ss)))
	rep.put("pipethermd.cpu_us_per_req", micros(cpu)/float64(len(ss)))
	rep.put("error_rate", float64(failed)/float64(max(1, d.N)))
	rtts := sortedCopy(rtt)
	rep.put("http.rtt_ms_p50", nearestRank(rtts, 50))
	rep.put("http.rtt_ms_p99", nearestRank(rtts, 99))
	rep.put("service.rejected_429", float64(s.rejected.Load()))
	if s.rec != nil {
		var tr, un []float64
		for _, x := range ss {
			if x.ok && !x.due.Before(from) && x.due.Before(to) {
				if x.idx%2 == 1 {
					tr = append(tr, x.latency())
				} else {
					un = append(un, x.latency())
				}
			}
		}
		rep.put("bench.trace_overhead_pct", 100*(median(tr)/median(un)-1))
	}

	peak, err := procMB(s.d.pid(), "VmHWM")
	if err != nil {
		return err
	}
	rep.put("rss_mb", rss)
	rep.put("peak_rss_mb", peak)
	var m service.Metrics
	if err := s.getJSON("/metrics", &m); err != nil {
		return err
	}
	rep.put("service.queue_wait_ewma_ms", m.QueueWaitEWMAMS)
	rep.put("service.jobs_completed", float64(m.JobsCompleted))
	rep.put("service.jobs_retried", float64(m.JobsRetried))
	rep.put("service.cache_hits", float64(m.Cache.Hits))
	rep.put("service.cache_misses", float64(m.Cache.Misses))
	if m.Cache.Hits > 0 {
		rep.put("service.cache_disk_hit_share", float64(m.Cache.DiskHits)/float64(m.Cache.Hits))
	}
	return nil
}

func (s *serviceRun) getJSON(path string, v any) error {
	resp, err := s.hc.Get(s.d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// traceProbes replays sampled payloads through the traced replica,
// checking each against its result bytes, then runs the layer probes on
// them and writes the span file. Each payload is also replayed at no less
// than 80k cycles, so phases past the warm start are timed even for the
// tiny cache-hit cells.
func (s *serviceRun) traceProbes(cells []cell, results [][]byte) error {
	acc := &layerAcc{}
	var reqs []service.Request
	seen := map[string]bool{}
	var benches []string
	for i, c := range cells {
		runs := []cell{c}
		if c.Cycles < 80_000 {
			long := c
			long.Cycles = 80_000
			runs = append(runs, long)
		}
		for k, r := range runs {
			t := time.Now()
			want, b, err := computeCell(r)
			if err != nil {
				return err
			}
			took := time.Since(t)
			if k == 0 && !bytes.Equal(b, results[i]) {
				s.rep.fail("payload %v: service result differs from the in-process computation", c)
			}
			if err := checkedReplica(s.rec, conns, int64(-1-i), acc, r, want, took); err != nil {
				return err
			}
		}
		reqs = append(reqs, c.request())
		if !seen[c.Bench] {
			seen[c.Bench] = true
			benches = append(benches, c.Bench)
		}
	}
	if err := layerProbes(s.rep.values, acc, s.rec.snapshot(), benches, filepath.Join(s.e.runDir, "probe"), reqs, results); err != nil {
		return err
	}
	if acc.mismatches > 0 {
		s.rep.fail("%d traced replicas diverged from the service's results", acc.mismatches)
	}
	return saveTrace(s.e.traceFile, s.rec)
}

// runServiceHit measures the read path: every payload is cached before
// the measurement, so no simulation runs while it is timed.
func runServiceHit(e *env, rep *report) error {
	cells, err := hitPayloads(e.seed)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(cells))
	for i, c := range cells {
		if bodies[i], err = json.Marshal(c.request()); err != nil {
			return err
		}
	}
	s := newServiceRun(e, rep)
	defer s.hc.CloseIdleConnections()
	cacheDir, journalDir := s.dirs()

	// Populate: each payload misses once; its bytes are what every later
	// hit must return.
	s.d, err = startDaemon(e, s.hc, cacheDir, journalDir)
	if err != nil {
		return err
	}
	miss := make([][]byte, len(cells))
	pop := closedLoop(conns, time.Now().Add(time.Hour), counter(len(cells)), func(_, i int) bool {
		code, b, err := post(s.hc, s.d.base, bodies[i])
		var r jobReply
		if err != nil || code != http.StatusOK || json.Unmarshal(b, &r) != nil || r.Cached || r.State != "done" || len(r.Result) == 0 {
			return false
		}
		miss[i] = r.Result
		return true
	})
	if err := s.d.stop(); err != nil {
		return fmt.Errorf("pipethermd exit: %w", err)
	}
	s.hc.CloseIdleConnections()
	for _, x := range pop {
		if !x.ok {
			return fmt.Errorf("populating payload %d (%v) failed", x.idx, cells[x.idx])
		}
	}
	h := sha256.New()
	for _, b := range miss {
		h.Write(b)
	}
	if err := checkDigest(e, rep, hex.EncodeToString(h.Sum(nil))); err != nil {
		return err
	}
	walPath := filepath.Join(journalDir, "journal.wal")
	wal, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}

	// Set-up: restart on the same directories, replaying the populated
	// journal every time (replay compacts it, so it is restored first).
	if err := s.setup(func() error { return os.WriteFile(walPath, wal, 0o644) }); err != nil {
		return err
	}

	next := hitKeys(e.seed)
	length := serviceWarmup + time.Duration(e.seconds*float64(time.Second))
	keys := make([]int, int(length.Seconds()*hitRate))
	for i := range keys {
		keys[i] = next()
	}
	var mu sync.Mutex
	first := make([][]byte, len(cells)) // first verified reply per payload
	cpu0, err := procCPU(s.d.pid())
	if err != nil {
		s.d.stop()
		return err
	}
	stopRSS := sampleRSS(s.d.pid())
	ss := openLoop(hitRate, length, func(lane, i int) bool {
		k := keys[i]
		b, ok := s.send(lane, i, bodies[k])
		if !ok {
			return false
		}
		// A repeat hit returns the same reply bytes; the first reply per
		// payload is decoded and checked against the miss that made it.
		mu.Lock()
		f := first[k]
		mu.Unlock()
		if f != nil && bytes.Equal(f, b) {
			return true
		}
		var r jobReply
		if json.Unmarshal(b, &r) != nil || !r.Cached || !bytes.Equal(r.Result, miss[k]) {
			return false
		}
		mu.Lock()
		first[k] = b
		mu.Unlock()
		return true
	})
	rss, err1 := stopRSS()
	cpu1, err2 := procCPU(s.d.pid())
	if err := errors.Join(err1, err2); err != nil {
		s.d.stop()
		return err
	}
	from, to := ss[0].due.Add(serviceWarmup), ss[0].due.Add(length)
	if err := s.measure(ss, from, to, cpu1-cpu0, rss); err != nil {
		return err
	}
	_, _, late, _ := window(ss, from, to)
	lates := sortedCopy(late)
	rep.put("gen.late_ms_p50", nearestRank(lates, 50))
	rep.put("gen.late_ms_p99", nearestRank(lates, 99))
	kb := 0
	for _, b := range miss {
		kb += len(b)
	}
	rep.put("service.result_kb", float64(kb)/1024/float64(len(miss)))
	if !e.trace {
		return nil
	}
	// Sixteen payloads, evenly spaced through the working set.
	var sample []cell
	var results [][]byte
	for i := 0; i < len(cells); i += len(cells) / 16 {
		sample = append(sample, cells[i])
		results = append(results, miss[i])
	}
	return s.traceProbes(sample, results)
}

// runServiceMiss measures the write path: every request is a distinct
// cell, so each one is admitted, queued, simulated, cached to disk and
// journaled.
func runServiceMiss(e *env, rep *report) error {
	stream := newMissStream(e.seed)
	s := newServiceRun(e, rep)
	defer s.hc.CloseIdleConnections()
	err := s.setup(func() error {
		cache, journal := s.dirs()
		return errors.Join(os.RemoveAll(cache), os.RemoveAll(journal))
	})
	if err != nil {
		return err
	}
	var mu sync.Mutex
	kept := map[int][]byte{} // results to digest or recompute
	length := serviceWarmup + time.Duration(e.seconds*float64(time.Second))
	cpu0, err := procCPU(s.d.pid())
	if err != nil {
		s.d.stop()
		return err
	}
	stopRSS := sampleRSS(s.d.pid())
	start := time.Now()
	ss := closedLoop(missConns, start.Add(length), counter(-1), func(lane, i int) bool {
		c, err := stream.at(i)
		if err != nil {
			return false
		}
		body, err := json.Marshal(c.request())
		if err != nil {
			return false
		}
		b, ok := s.send(lane, i, body)
		var r jobReply
		if !ok || json.Unmarshal(b, &r) != nil || r.Cached || r.State != "done" || len(r.Result) == 0 {
			return false
		}
		if i%missCheckEvery == 0 || i < missDigestRequests {
			mu.Lock()
			kept[i] = r.Result
			mu.Unlock()
		}
		return true
	})
	rss, err1 := stopRSS()
	cpu1, err2 := procCPU(s.d.pid())
	if err := errors.Join(err1, err2); err != nil {
		s.d.stop()
		return err
	}
	from := start.Add(serviceWarmup)
	if err := s.measure(ss, from, start.Add(length), cpu1-cpu0, rss); err != nil {
		return err
	}

	h := sha256.New()
	for i := 0; i < missDigestRequests; i++ {
		b, ok := kept[i]
		if !ok {
			return fmt.Errorf("miss %d of the digest did not complete", i)
		}
		h.Write(b)
	}
	if err := checkDigest(e, rep, hex.EncodeToString(h.Sum(nil))); err != nil {
		return err
	}

	// Recompute the sampled results with runCell's calls, untimed and
	// after the measurement so they do not compete with the daemon.
	var idx []int
	for i := range kept {
		if i%missCheckEvery == 0 {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	var (
		cells   []cell
		results [][]byte
		simMs   []float64
	)
	for _, i := range idx {
		c, err := stream.at(i)
		if err != nil {
			return err
		}
		t := time.Now()
		_, b, err := computeCell(c)
		if err != nil {
			return err
		}
		simMs = append(simMs, millis(time.Since(t)))
		if !bytes.Equal(b, kept[i]) {
			rep.fail("miss %d (%v): daemon result differs from the in-process recomputation", i, c)
			rep.failed++
		}
		cells = append(cells, c)
		results = append(results, kept[i])
	}
	rep.put("service.sim_ms", median(simMs))
	kb := 0
	for _, b := range results {
		kb += len(b)
	}
	rep.put("service.result_kb", float64(kb)/1024/float64(max(1, len(results))))
	if !e.trace {
		return nil
	}
	if err := s.traceProbes(cells, results); err != nil {
		return err
	}
	// What the probes do not explain of a miss's round trip is queueing,
	// dispatch and HTTP: the engine-internal phases no span reaches yet.
	v := rep.values
	_, rtt, _, _ := window(ss, from, start.Add(length))
	explained := v["service.key_us"]/1e3 + v["service.validate_us"]/1e3 + v["service.sim_ms"] +
		v["service.cache_put_ms"] + 2*v["journal.append_ms"]
	rep.put("service.miss_residue_ms", median(rtt)-explained)
	return nil
}
