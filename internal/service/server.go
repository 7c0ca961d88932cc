// The HTTP surface of the job engine, mounted by cmd/pipethermd:
//
//	POST /v1/jobs              submit one cell or one batch matrix
//	GET  /v1/jobs/{id}         job or batch status + result JSON
//	GET  /v1/jobs/{id}/result  the raw result JSON bytes alone
//	GET  /v1/jobs/{id}/report  paper-style table / report text
//	GET  /healthz              liveness: the process is up and serving
//	GET  /readyz               readiness: 503 during journal replay and
//	                           from the moment a drain begins, so load
//	                           balancers stop routing before shutdown
//	                           loses requests
//	GET  /metrics              engine + cache + Go-runtime counters,
//	                           health state, breaker states, durability
//	                           mode, queue-wait estimate, shed counters
//	                           and aggregated pipeline-utilization
//	                           telemetry
//	GET  /debug/pprof/         live CPU/heap/goroutine profiling
//
// Submission bodies: a cell is {"benchmark","plan","techniques",
// "cycles","warmup"}; a batch is {"experiment","benchmarks","cycles",
// "warmup"} (the "experiment" field selects the shape); a multi-core
// scheduling run is {"multicore":{...multicore.Params...}} and follows
// the cell path (single job, cached by canonical request). Either shape
// may add "deadline_ms": jobs the queue cannot meet in time are
// rejected up front, and expired queued jobs are shed unrun. ?wait=1
// blocks until the job settles; if the waiting client disconnects and
// no one else wants the job, the attempt is cancelled and counted
// abandoned. Backpressure rejections (full queue, unmeetable deadline)
// answer 429 with a Retry-After estimate; invalid requests 400,
// unknown keys 404.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/multicore"
	"repro/internal/sim"
)

// Server wires the engine into an http.Handler.
type Server struct {
	engine *Engine
	mux    *http.ServeMux
}

// NewServer returns the HTTP front end for the engine.
func NewServer(e *Engine) *Server {
	s := &Server{engine: e, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Live profiling: a long matrix run can be inspected in place with
	// `go tool pprof http://host/debug/pprof/profile`.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// submitBody is the union of the two POST /v1/jobs shapes.
type submitBody struct {
	// Batch form.
	Experiment string   `json:"experiment"`
	Benchmarks []string `json:"benchmarks"`
	// DeadlineMS, when positive, is a client deadline in milliseconds
	// from now: admission rejects the job with 429 (and a Retry-After
	// hint) if the estimated queue wait already exceeds it, and workers
	// shed it unrun if it expires while queued. Not part of the job key
	// — the same cell with a different deadline is still the same cell.
	DeadlineMS int64 `json:"deadline_ms"`
	// Cell form (Benchmark alone distinguishes it).
	Request
}

// options lifts the wire-level deadline into engine submit options.
func (b submitBody) options(e *Engine) SubmitOptions {
	var opt SubmitOptions
	if b.DeadlineMS > 0 {
		opt.Deadline = e.Now().Add(time.Duration(b.DeadlineMS) * time.Millisecond)
	}
	return opt
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var body submitBody
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	wait := isTrue(r.URL.Query().Get("wait"))
	if body.Experiment != "" {
		s.submitBatch(w, r, body, wait)
		return
	}
	s.submitCell(w, r, body, wait)
}

func (s *Server) submitCell(w http.ResponseWriter, r *http.Request, body submitBody, wait bool) {
	req, opt := body.Request, body.options(s.engine)
	if wait {
		// The synchronous path ties the job to this request: if the
		// client disconnects and nobody else wants the job, the engine
		// cancels the attempt instead of computing for a closed socket.
		st, err := s.engine.SubmitWait(r.Context(), req, opt)
		if err != nil {
			if r.Context().Err() != nil {
				return // client is gone; nothing to answer
			}
			s.submitError(w, err)
			return
		}
		writeJSON(w, jobHTTPStatus(st), st)
		return
	}
	j, err := s.engine.SubmitOpts(req, opt)
	if err != nil {
		s.submitError(w, err)
		return
	}
	st, _ := s.engine.Job(j.Key)
	writeJSON(w, jobHTTPStatus(st), st)
}

func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request, body submitBody, wait bool) {
	breq := BatchRequest{
		Experiment: body.Experiment,
		Benchmarks: body.Benchmarks,
		Cycles:     body.Cycles,
		Warmup:     body.Warmup,
	}
	b, err := s.engine.SubmitBatchOpts(breq, body.options(s.engine))
	if err != nil {
		s.submitError(w, err)
		return
	}
	if wait {
		st, err := s.engine.WaitBatch(r.Context(), b.Key)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, batchHTTPStatus(st), st)
		return
	}
	st, _ := s.engine.BatchJob(b.Key)
	writeJSON(w, batchHTTPStatus(st), st)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if st, ok := s.engine.Job(id); ok {
		writeJSON(w, jobHTTPStatus(st), st)
		return
	}
	if st, ok := s.engine.BatchJob(id); ok {
		writeJSON(w, batchHTTPStatus(st), st)
		return
	}
	httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.engine.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if st.State != JobDone {
		httpError(w, http.StatusConflict, fmt.Errorf("job %q is %s", id, st.State))
		return
	}
	// The exact cached bytes: identical requests get identical responses.
	w.Header().Set("Content-Type", "application/json")
	w.Write(st.Result)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if st, ok := s.engine.Job(id); ok {
		if st.State != JobDone {
			httpError(w, http.StatusConflict, fmt.Errorf("job %q is %s", id, st.State))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if st.Req.Multicore != nil {
			var res multicore.Result
			if err := json.Unmarshal(st.Result, &res); err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			fmt.Fprint(w, res.Report())
			return
		}
		var res sim.Result
		if err := json.Unmarshal(st.Result, &res); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		fmt.Fprint(w, res.Report())
		return
	}
	if st, ok := s.engine.BatchJob(id); ok {
		if st.State != JobDone {
			httpError(w, http.StatusConflict, fmt.Errorf("batch %q is %s", id, st.State))
			return
		}
		m, err := s.engine.BatchMatrix(id)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, m.Report())
		return
	}
	httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if ready, reason := s.engine.Ready(); !ready {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Metrics())
}

// --- helpers ---------------------------------------------------------------

// submitError answers a failed submission. Backpressure rejections
// (full queue, unmeetable deadline) carry a Retry-After hint computed
// from the current queue depth and the recent per-job latency, so
// well-behaved clients back off for about as long as the congestion
// will actually take to clear.
func (s *Server) submitError(w http.ResponseWriter, err error) {
	code := submitStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.engine.RetryAfterSeconds()))
	}
	httpError(w, code, err)
}

func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDeadlineUnmeetable):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShutdown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func jobHTTPStatus(st JobStatus) int {
	switch st.State {
	case JobDone:
		return http.StatusOK
	case JobFailed, JobQuarantined:
		return http.StatusInternalServerError
	default:
		return http.StatusAccepted
	}
}

func batchHTTPStatus(st BatchStatus) int {
	switch st.State {
	case JobDone:
		return http.StatusOK
	case JobFailed:
		return http.StatusInternalServerError
	default:
		return http.StatusAccepted
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func isTrue(s string) bool {
	switch strings.ToLower(s) {
	case "1", "true", "yes":
		return true
	}
	return false
}
