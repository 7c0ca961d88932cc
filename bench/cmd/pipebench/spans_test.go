package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "sim.cell", Start: 0, End: 100 * ms},
		// Overlapping children count once; a child running past its
		// parent's end covers only the part inside it.
		{ID: 2, Parent: 1, Name: "pipeline.cycles", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "power.drain", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "thermal.advance", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 3, Name: "leaf", Start: 25 * ms, End: 26 * ms},
		{ID: 6, Name: "http.post", Start: 0, End: 7 * ms},
	}
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 29 * ms, 4: 30 * ms, 5: ms, 6: 7 * ms}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	rec := newRecorder()
	parent := rec.newID()
	t0 := rec.epoch.Add(time.Millisecond)
	rec.add(span{Parent: parent, Name: "pipeline.cycles", TID: 1, Trace: 3, Count: 10_000}, t0, t0.Add(2*time.Millisecond))
	rec.add(span{ID: parent, Name: "sim.cell", TID: 1, Trace: 3}, rec.epoch, t0.Add(3*time.Millisecond))

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Ph != "X" || ev.Cat != "pipeline" || ev.TS != 1000 || ev.Dur != 2000 || ev.TID != 1 {
		t.Errorf("event %+v: want a complete pipeline event at 1000us lasting 2000us", ev)
	}
	if ev.Args["parent"] != float64(parent) || ev.Args["count"] != float64(10_000) || ev.Args["trace"] != float64(3) {
		t.Errorf("event args %v", ev.Args)
	}
	if doc.TraceEvents[1].Args["id"] != float64(parent) {
		t.Errorf("parent span keeps its reserved id: args %v", doc.TraceEvents[1].Args)
	}

	buf.Reset()
	if err := writeChromeTrace(&buf, nil); err != nil || !json.Valid(buf.Bytes()) {
		t.Errorf("empty trace: %v %q", err, buf.String())
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	rec.add(span{Name: "x"}, time.Now(), time.Now())
	if rec.newID() != 0 || rec.snapshot() != nil {
		t.Error("a nil recorder must be inert")
	}
}
