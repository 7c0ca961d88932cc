package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/multicore"
)

// TestRequestCanonicalFastPath holds the hand-rolled canonical encoder
// equal, byte for byte, to the json.Marshal path it shortcuts — across
// grids of enum values (in and out of range), boolean/int corners, and
// benchmark names that force escaping. Canonical bytes are load-bearing
// (cache keys, journal records), so "identical or fall back" is the
// whole contract.
func TestRequestCanonicalFastPath(t *testing.T) {
	benches := []string{
		"eon", "gzip", "", "weird name", "UPPER.case-ok_123",
		`has"quote`, `back\slash`, "html<&>", "utf8-é", "ctrl\x01char", "tab\tsep",
	}
	var reqs []Request
	for _, b := range benches {
		for _, plan := range []config.FloorplanVariant{0, 1, 2, 250} {
			for _, iq := range []config.IQPolicy{config.IQBase, config.IQNonCompacting, 99} {
				for _, off := range []bool{false, true} {
					reqs = append(reqs, Request{
						Benchmark: b,
						Plan:      plan,
						Techniques: config.Techniques{
							IQ:        iq,
							ALU:       config.ALURoundRobin,
							RFMap:     config.MapBalanced,
							RFTurnoff: off,
							RFWrites:  config.WriteCopyOnCool,
							Temporal:  config.TemporalDVFS,
						},
						Cycles: int64(len(reqs)) * 1_000_003,
						Warmup: len(reqs),
					})
				}
			}
		}
	}
	reqs = append(reqs,
		Request{Benchmark: "eon"},                         // all defaults
		Request{Benchmark: "eon", Cycles: -5, Warmup: -1}, // normalized up
		Request{Multicore: &multicore.Params{Cores: 4}},   // multicore shape: fallback
	)

	for _, r := range reqs {
		want, err := json.Marshal(r.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("Canonical(%+v)\n got %s\nwant %s", r, got, want)
		}
		sum := sha256.Sum256(want)
		wantKey := hex.EncodeToString(sum[:])
		gotKey, err := r.Key()
		if err != nil {
			t.Fatal(err)
		}
		if gotKey != wantKey {
			t.Errorf("Key(%+v) = %s, want %s", r, gotKey, wantKey)
		}
	}
}

// TestEnumNamesArePlain pins the invariant appendCanonical leans on:
// every enum it encodes emits a plain-ASCII String() for all 256
// possible values (named values and the out-of-range "Type(%d)" form
// alike), so the fast path may skip escaping checks on them.
func TestEnumNamesArePlain(t *testing.T) {
	for v := 0; v < 256; v++ {
		b := uint8(v)
		for _, s := range []string{
			config.FloorplanVariant(b).String(),
			config.IQPolicy(b).String(),
			config.ALUPolicy(b).String(),
			config.RFMapping(b).String(),
			config.RFWritePolicy(b).String(),
			config.TemporalPolicy(b).String(),
		} {
			if !plainJSONString(s) {
				t.Fatalf("enum name %q (value %d) is not plain ASCII", s, v)
			}
		}
	}
}

// TestPlainJSONString pins the escape predicate to json.Marshal's
// actual behavior: every string the predicate accepts must be emitted
// unescaped, and every byte json.Marshal escapes must be rejected.
func TestPlainJSONString(t *testing.T) {
	for c := 0; c < 256; c++ {
		s := "x" + string(rune(c)) + "y"
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		literal := string(enc) == `"`+s+`"`
		if plainJSONString(s) && !literal {
			t.Errorf("plainJSONString accepts %q but json.Marshal emits %s", s, enc)
		}
	}
	if plainJSONString("utf8-é") {
		t.Error("plainJSONString must reject multi-byte UTF-8")
	}
}
