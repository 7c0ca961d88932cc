package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one cell or request share Trace.
type span struct {
	ID, Parent int // Parent 0 = root
	Name       string
	TID        int   // worker lane the span ran on
	Trace      int64 // cell or request index
	Start, End time.Duration
	Count      int64 // work done inside the span (cycles, instructions), 0 if none
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths share the traced ones.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span id, so a parent can be named before it ends.
func (r *recorder) newID() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span that ran from start to end.
func (r *recorder) add(s span, start, end time.Time) {
	if r == nil {
		return
	}
	s.Start, s.End = start.Sub(r.epoch), end.Sub(r.epoch)
	r.mu.Lock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as a Chrome trace-event JSON document.
func writeChromeTrace(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace}
		if s.Count != 0 {
			args["count"] = s.Count
		}
		ev := chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.TID, Args: args,
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// layerOf names a span's layer: the part of its name before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// saveTrace writes the recorder's spans to path.
func saveTrace(path string, r *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, r.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
