#!/usr/bin/env bash
# Run the hot-loop microbenchmarks and record the results.
#
# Usage:
#
#   scripts/bench.sh [-count N] [-out FILE] [pattern]
#
# Runs the gated microbenchmarks (default: the cycle hot loop —
# BenchmarkPipelineCycle and BenchmarkSimInterval — plus the thermal
# axis in internal/thermal, BenchmarkThermalAdvance at paper scale and
# N=30/300/3000 and BenchmarkThermalSteadyState's CG and Gaussian
# solves at N=30/300/3000, the multi-core lockstep interval,
# BenchmarkMulticoreInterval at 1/2/4/8 cores, and the service-layer
# load generator, BenchmarkEngineThroughput in internal/service, at
# hit/miss/mixed × 1/4/16/64 submitters) with -benchmem -count=5
# and writes BENCH_pipeline.json:
# the raw `go test -bench` text (benchstat's input format) alongside
# machine-readable per-run samples. Compare two checkouts with:
#
#   scripts/bench.sh -out /tmp/old.json            # on the baseline
#   scripts/bench.sh -out /tmp/new.json            # on the change
#   benchstat <(jq -r .benchstat /tmp/old.json) <(jq -r .benchstat /tmp/new.json)
#
# The benchmarks are single-threaded simulator loops, so run on an idle
# machine for stable numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT=5
OUT=BENCH_pipeline.json
PATTERN='BenchmarkPipelineCycle|BenchmarkSimInterval|BenchmarkThermalAdvance|BenchmarkThermalSteadyState|BenchmarkMulticoreInterval|BenchmarkEngineThroughput'
while [[ $# -gt 0 ]]; do
  case "$1" in
    -count) COUNT="$2"; shift 2 ;;
    -out) OUT="$2"; shift 2 ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) PATTERN="$1"; shift ;;
  esac
done

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT
echo "bench: running ${PATTERN} with -benchmem -count=${COUNT}" >&2
# The full pattern at -count=5 runs past go test's default 10m timeout.
# The root package holds the simulator loops, internal/thermal the
# thermal solver benchmarks, and internal/service the engine throughput
# load generator.
go test -run '^$' -bench "${PATTERN}" -benchmem -count="${COUNT}" -timeout 40m . ./internal/thermal ./internal/service | tee "$RAW" >&2

# Assemble the JSON record: environment, per-sample parse, and the raw
# benchstat-compatible text. An existing record's hand-curated baseline
# section is carried over and the summary recomputed against it.
PREV=()
if [[ -s "$OUT" ]]; then
  PREV=(-prev "$OUT")
fi
NEW=$(mktemp)
go run ./scripts/benchjson "${PREV[@]}" "$RAW" > "$NEW"
mv "$NEW" "$OUT"
echo "bench: wrote $OUT" >&2
