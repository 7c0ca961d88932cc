// JSON serialization of Result. The wire form carries everything the
// reports consume — including the per-block temperature vectors that are
// unexported in Result — with stable snake_case keys in declaration
// order, so marshalling the same Result always yields the same bytes.
// internal/service stores these bytes in its content-addressed cache and
// serves them back verbatim, which is what makes "second request returns
// byte-identical JSON" hold.
package sim

import (
	"encoding/json"
	"fmt"
)

// resultFields is Result without its methods, so encoding it does not
// recurse into Result's MarshalJSON and UnmarshalJSON.
type resultFields Result

// resultJSON is the wire form: Result's tagged exported fields, then the
// temperature vectors Result keeps unexported.
type resultJSON struct {
	*resultFields
	Blocks   []string  `json:"blocks"`
	AvgTempK []float64 `json:"avg_temp_k"`
	PeakTemp []float64 `json:"peak_temp_k"`
}

// MarshalJSON encodes the result, temperature vectors included.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultJSON{(*resultFields)(r), r.blockNames, r.avgTemp, r.peakTemp})
}

// UnmarshalJSON decodes a result, restoring the unexported temperature
// vectors; the three block-indexed slices must agree in length.
func (r *Result) UnmarshalJSON(b []byte) error {
	var out Result
	w := resultJSON{resultFields: (*resultFields)(&out)}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if len(w.Blocks) != len(w.AvgTempK) || len(w.Blocks) != len(w.PeakTemp) {
		return fmt.Errorf("sim: result JSON has %d blocks but %d avg / %d peak temperatures",
			len(w.Blocks), len(w.AvgTempK), len(w.PeakTemp))
	}
	out.blockNames, out.avgTemp, out.peakTemp = w.Blocks, w.AvgTempK, w.PeakTemp
	out.blockIdx = make(map[string]int, len(w.Blocks))
	for i, n := range w.Blocks {
		out.blockIdx[n] = i
	}
	*r = out
	return nil
}
