#!/usr/bin/env bash
# End-to-end check of the pipethermd service contract, run by the CI
# service-e2e job and usable locally:
#
#   1. boot the daemon on a random port with a persistent cache dir
#   2. submit a tiny cell and wait for it            -> done, not cached
#   3. submit the identical cell again               -> served from cache
#   4. fetch the result twice                        -> byte-identical JSON
#   5. /metrics                                      -> cache.hits >= 1
#   6. SIGTERM while a longer job is running         -> drains, exit 0
#
# Uses only curl/grep/sed/cmp. Any failed step fails the script.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$workdir/daemon.log" >&2 || true
    exit 1
}

echo "==> building pipethermd"
go build -o "$workdir/pipethermd" ./cmd/pipethermd

echo "==> starting daemon"
"$workdir/pipethermd" -addr 127.0.0.1:0 -workers 2 \
    -cache-dir "$workdir/cache" -drain-timeout 60s \
    >"$workdir/daemon.log" 2>&1 &
pid=$!

base=""
for _ in $(seq 1 200); do
    base="$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$workdir/daemon.log" | head -n1)"
    [ -n "$base" ] && break
    kill -0 "$pid" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.05
done
[ -n "$base" ] || fail "daemon never announced its address"
echo "    daemon at $base"

curl -fsS "$base/healthz" | grep -q '"ok"' || fail "healthz not ok"

body='{"benchmark":"eon","cycles":120000,"warmup":20000}'

echo "==> first submission (cold)"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" \
    "$base/v1/jobs?wait=1" >"$workdir/r1.json"
grep -q '"state":"done"' "$workdir/r1.json" || fail "first job not done: $(cat "$workdir/r1.json")"
grep -q '"cached":false' "$workdir/r1.json" || fail "first job claims cached: $(cat "$workdir/r1.json")"
key="$(sed -n 's/.*"key":"\([0-9a-f]\{64\}\)".*/\1/p' "$workdir/r1.json" | head -n1)"
[ -n "$key" ] || fail "no job key in first response"
echo "    job $key"

echo "==> second submission (must be a cache hit)"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" \
    "$base/v1/jobs?wait=1" >"$workdir/r2.json"
grep -q '"state":"done"' "$workdir/r2.json" || fail "second job not done"
grep -q '"cached":true' "$workdir/r2.json" || fail "second job not served from cache: $(cat "$workdir/r2.json")"

echo "==> result bytes are identical across fetches"
curl -fsS "$base/v1/jobs/$key/result" >"$workdir/res1.json"
curl -fsS "$base/v1/jobs/$key/result" >"$workdir/res2.json"
cmp "$workdir/res1.json" "$workdir/res2.json" || fail "result JSON not byte-identical"
grep -q '"benchmark":"eon"' "$workdir/res1.json" || fail "result missing benchmark field"

echo "==> report renders"
curl -fsS "$base/v1/jobs/$key/report" | grep -q 'IPC' || fail "report missing IPC line"

echo "==> metrics counted the cache hit"
curl -fsS "$base/metrics" >"$workdir/metrics.json"
grep -q '"cache":{"hits":[1-9]' "$workdir/metrics.json" || fail "no cache hit in metrics: $(cat "$workdir/metrics.json")"
grep -q '"jobs_completed":1' "$workdir/metrics.json" || fail "expected exactly one completed run: $(cat "$workdir/metrics.json")"

echo "==> on-disk cache entry exists"
[ -f "$workdir/cache/${key:0:2}/$key.json" ] || fail "no content-addressed cache file for $key"

echo "==> SIGTERM during a running job drains cleanly"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"benchmark":"eon","cycles":2000000,"warmup":100000}' \
    "$base/v1/jobs" >/dev/null
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 0 ] || fail "daemon exited $rc after SIGTERM"
grep -q 'drained' "$workdir/daemon.log" || fail "daemon log missing drain confirmation"

echo "PASS: service e2e"
