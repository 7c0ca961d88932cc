package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
)

// digestsPath holds the pinned output digest per workload and seed.
const digestsPath = "bench/testdata/digests.json"

// checkDigest compares a run's output digest (hex SHA-256) with the one pinned for its
// workload and seed, or pins it with -update-digests. Seeds without a pin
// are only reported.
func checkDigest(e *env, rep *report, got string) error {
	path := filepath.Join(e.root, digestsPath)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	pins := map[string]map[string]string{}
	if err := json.Unmarshal(raw, &pins); err != nil {
		return err
	}
	seed := strconv.FormatUint(e.seed, 10)
	if e.updateDigests {
		if pins[e.workload] == nil {
			pins[e.workload] = map[string]string{}
		}
		pins[e.workload][seed] = got
		out, err := json.MarshalIndent(pins, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if want, ok := pins[e.workload][seed]; ok && want != got {
		rep.fail("output digest %s, pinned %s for %s seed %s", got, want, e.workload, seed)
	}
	return nil
}
