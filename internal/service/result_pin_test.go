package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/config"
)

// TestResultBytesPinned pins each case's job key and the SHA-256 of
// runCell's canonical result JSON at full float precision. The key names
// the disk-cache entry and the journal record, so a key change would
// orphan every cached result and re-key replay. The goldens print
// temperatures to 0.1 K, so a solver change that moves the thermal state
// by ~1e-12 K passes them while changing every cached result byte; these
// pins catch that.
//
// Each cell runs well past the sim.ThermalWarmIntervals sensor intervals
// that only measure warm-start power (4 × 10k cycles): a shorter cell
// never samples a temperature and so cannot see the warm start. The
// multicore request tiles two cores, the largest shared die the small-
// network steady-state solve covers.
func TestResultBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		key  string
		want string
	}{
		{"iq-toggle", Request{Benchmark: "eon", Plan: config.PlanIQConstrained,
			Techniques: config.Techniques{IQ: config.IQToggle}, Cycles: 150_000, Warmup: 10_000},
			"ca85df03df1f66d6080827a68bca8aae1a862284c78a2d4274205a2df7c22bd9",
			"3887383c293cf36f4bbf25684e1983be7f9980549497c3cabfe31fbca5dcafee"},
		{"alu-fine-grain", Request{Benchmark: "eon", Plan: config.PlanALUConstrained,
			Techniques: config.Techniques{ALU: config.ALUFineGrain}, Cycles: 150_000, Warmup: 10_000},
			"9c73cbdb21ea9773a00c4e89b2b2fd42e310a6b615dc1ccb3ad96856ef58d1b9",
			"6885a1c1223b71a27727b03e94d03c4cdb39e202fa76ece35bd3efd1d7a751f2"},
		{"rf-fgt-balanced", Request{Benchmark: "eon", Plan: config.PlanRFConstrained,
			Techniques: config.Techniques{RFMap: config.MapBalanced, RFTurnoff: true}, Cycles: 150_000, Warmup: 10_000},
			"e81d977cb889de921beb35ea1e9a404725612d343e0fdf2813bdf7fb5d368698",
			"cdaffbec6d04e41c5f284680a3f7207fc3b8b5bed82d6791077fa525f91aed12"},
		{"iq-dvfs", Request{Benchmark: "gzip", Plan: config.PlanIQConstrained,
			Techniques: config.Techniques{Temporal: config.TemporalDVFS}, Cycles: 150_000, Warmup: 10_000},
			"30823530f58b41602affd9c394813fc3210161a2ed048a537617e725ff6b9fef",
			"d3a5dc3cef6e14b0350d00370c7910b014d8abca8c03b0f52494ce40911f8a95"},
		{"multicore-2", Request{Multicore: mcParams()},
			"7f813c7b5fb8d1f5eb92d63cce86becc3975d49ac21d5b0e6dbcd4bf19248af3",
			"1490c86657dcb82c77f5a6ff57d45f77cb263f34d52b8540ba178b3ced7cd461"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			key, err := c.req.Key()
			if err != nil {
				t.Fatal(err)
			}
			if key != c.key {
				t.Errorf("job key changed: %s, pinned %s", key, c.key)
			}
			out, err := runCell(context.Background(), c.req)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("result bytes changed: sha256 %s, pinned %s\n%s", got, c.want, out)
			}
		})
	}
}
