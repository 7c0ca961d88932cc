#!/usr/bin/env bash
# Overload-protection and graceful-degradation end-to-end check for
# pipethermd, run by the CI overload job and usable locally:
#
#   1. reference run: boot a roomy daemon and run every cell used below
#      to completion, saving each cell's result bytes
#   2. burst run: boot a daemon with one worker and a 4-deep queue, then
#      submit the same 16 cells back to back (4x the queue capacity).
#      Some must be rejected with 429 + a Retry-After hint; every
#      accepted cell must complete with result bytes identical to the
#      unloaded reference run — load sheds, it never corrupts
#   3. deadline shed: with the queue refilled, a submission carrying an
#      unmeetable deadline_ms is rejected up front with 429 and counted
#      in jobs_shed_admission
#   4. disk yank: boot a durable daemon with the -chaos-disk-fault seam,
#      then create the sentinel so every cache/journal disk touch fails
#      with ENOSPC. The daemon must trip its breakers and degrade —
#      durability "none", health "degraded" — while still answering
#      work, and /healthz must never leave 200. Removing the sentinel
#      must bring durability back to "journaled" on its own
#   5. recovery is real: a post-recovery cell survives SIGKILL via the
#      re-opened disk layers — the restarted daemon replays its journal
#      and serves the cell from the disk cache byte-identical
#
# Uses only curl/grep/sed/cmp. Any failed step fails the script.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    for log in "$workdir"/daemon*.log; do
        echo "--- $log ---" >&2
        cat "$log" >&2 || true
    done
    exit 1
}

# start_daemon <logfile> <extra flags...>: boots a daemon and sets
# $pid/$base.
start_daemon() {
    local log="$1"
    shift
    "$workdir/pipethermd" -addr 127.0.0.1:0 "$@" \
        >"$log" 2>&1 &
    pid=$!
    base=""
    for _ in $(seq 1 200); do
        base="$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$log" | head -n1)"
        [ -n "$base" ] && break
        kill -0 "$pid" 2>/dev/null || fail "daemon exited during startup ($log)"
        sleep 0.05
    done
    [ -n "$base" ] || fail "daemon never announced its address ($log)"
}

stop_daemon() {
    kill -TERM "$pid"
    wait "$pid" || true
    pid=""
}

# cell <cycles>: the JSON body for one distinct burst cell.
cell() {
    echo "{\"benchmark\":\"eon\",\"cycles\":$1,\"warmup\":50000}"
}

# healthz_ok: liveness must answer 200 no matter how degraded the
# daemon is; anything else fails the run on the spot.
healthz_ok() {
    local code
    code="$(curl -s -o /dev/null -w '%{http_code}' "$base/healthz")"
    [ "$code" = "200" ] || fail "healthz answered $code during $1"
}

# wait_done <key>: polls a job until it reports done.
wait_done() {
    local key="$1"
    for _ in $(seq 1 600); do
        if curl -fsS "$base/v1/jobs/$key" 2>/dev/null | grep -q '"state":"done"'; then
            return 0
        fi
        sleep 0.1
    done
    fail "cell $key never completed"
}

echo "==> building pipethermd"
go build -o "$workdir/pipethermd" ./cmd/pipethermd

echo "==> reference run (unloaded)"
start_daemon "$workdir/daemon-ref.log" -workers 2 -queue 64
refkeys=""
for i in $(seq 0 15); do
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$(cell $((6000000 + i)))" "$base/v1/jobs?wait=1" >"$workdir/ref-resp-$i.json"
    key="$(grep -o '"key":"[0-9a-f]\{64\}"' "$workdir/ref-resp-$i.json" | head -n1 | grep -o '[0-9a-f]\{64\}')"
    [ -n "$key" ] || fail "reference cell $i returned no key: $(cat "$workdir/ref-resp-$i.json")"
    curl -fsS "$base/v1/jobs/$key/result" >"$workdir/ref-$key.json"
    refkeys="$refkeys $key"
done
stop_daemon
echo "    16 reference cells saved"

echo "==> burst at 4x queue capacity (1 worker, queue 4)"
start_daemon "$workdir/daemon-burst.log" -workers 1 -queue 4
accepted=""
shed=0
for i in $(seq 0 15); do
    code="$(curl -s -o "$workdir/burst-resp-$i.json" -D "$workdir/burst-hdr-$i.txt" \
        -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
        -d "$(cell $((6000000 + i)))" "$base/v1/jobs")"
    case "$code" in
    202 | 200)
        key="$(grep -o '"key":"[0-9a-f]\{64\}"' "$workdir/burst-resp-$i.json" | head -n1 | grep -o '[0-9a-f]\{64\}')"
        [ -n "$key" ] || fail "accepted burst cell $i returned no key"
        accepted="$accepted $key"
        ;;
    429)
        retry="$(sed -n 's/^[Rr]etry-[Aa]fter: *\([0-9]*\).*/\1/p' "$workdir/burst-hdr-$i.txt" | head -n1)"
        [ -n "$retry" ] && [ "$retry" -ge 1 ] || fail "429 without a usable Retry-After (got '$retry')"
        shed=$((shed + 1))
        ;;
    *)
        fail "burst cell $i answered $code: $(cat "$workdir/burst-resp-$i.json")"
        ;;
    esac
done
[ "$shed" -ge 1 ] || fail "a 4x burst shed nothing"
naccepted="$(echo "$accepted" | wc -w)"
[ "$naccepted" -ge 1 ] || fail "a 4x burst accepted nothing"
echo "    $naccepted accepted, $shed shed with Retry-After"

echo "==> every accepted cell completes byte-identical to the unloaded run"
for key in $accepted; do
    wait_done "$key"
    curl -fsS "$base/v1/jobs/$key/result" >"$workdir/burst-$key.json"
    cmp "$workdir/ref-$key.json" "$workdir/burst-$key.json" \
        || fail "cell $key differs between the loaded and unloaded runs"
done

echo "==> an unmeetable deadline is shed at admission"
# Refill the queue so the wait estimate (depth x completed-job EWMA) is
# far beyond a 1ms deadline, then ask for exactly that.
for i in $(seq 0 2); do
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$(cell $((7000000 + i)))" "$base/v1/jobs" >/dev/null
done
code="$(curl -s -o "$workdir/deadline-resp.json" -D "$workdir/deadline-hdr.txt" \
    -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d '{"benchmark":"eon","cycles":7100000,"warmup":50000,"deadline_ms":1}' "$base/v1/jobs")"
[ "$code" = "429" ] || fail "unmeetable deadline answered $code: $(cat "$workdir/deadline-resp.json")"
grep -q 'deadline' "$workdir/deadline-resp.json" || fail "429 body does not mention the deadline"
grep -qi '^retry-after:' "$workdir/deadline-hdr.txt" || fail "deadline 429 carries no Retry-After"
curl -fsS "$base/metrics" | grep -q '"jobs_shed_admission":[1-9]' \
    || fail "jobs_shed_admission did not count the shed"
stop_daemon

echo "==> disk yank: breakers trip, daemon degrades but keeps serving"
sentinel="$workdir/disk-fault"
start_daemon "$workdir/daemon-disk.log" \
    -workers 2 -cache-dir "$workdir/cache" -journal-dir "$workdir/journal" \
    -chaos-disk-fault "$sentinel"
curl -fsS "$base/metrics" >"$workdir/metrics-healthy.json"
grep -q '"durability":"journaled"' "$workdir/metrics-healthy.json" \
    || fail "daemon did not start journaled: $(cat "$workdir/metrics-healthy.json")"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$(cell 8000000)" "$base/v1/jobs?wait=1" | grep -q '"state":"done"' \
    || fail "pre-fault cell did not complete"

touch "$sentinel"
# Drive disk I/O into the fault until the journal breaker opens; the
# daemon must keep answering the very submissions that trip it.
degraded=""
for i in $(seq 1 20); do
    healthz_ok "the disk fault"
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$(cell $((8100000 + i)))" "$base/v1/jobs?wait=1" >"$workdir/fault-resp-$i.json" \
        || fail "submission failed outright during the disk fault"
    grep -q '"state":"done"' "$workdir/fault-resp-$i.json" \
        || fail "cell did not complete during the disk fault: $(cat "$workdir/fault-resp-$i.json")"
    curl -fsS "$base/metrics" >"$workdir/metrics-fault.json"
    if grep -q '"durability":"none"' "$workdir/metrics-fault.json"; then
        degraded=1
        break
    fi
    sleep 0.1
done
[ -n "$degraded" ] || fail "durability never degraded to none: $(cat "$workdir/metrics-fault.json")"
grep -q '"state":"degraded"' "$workdir/metrics-fault.json" \
    || fail "health machine not degraded: $(cat "$workdir/metrics-fault.json")"
# Work submitted while the breaker is open skips the journal entirely;
# push a little more through and the skip counter must move.
skipped=""
for i in $(seq 1 20); do
    healthz_ok "the open breaker"
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$(cell $((8200000 + i)))" "$base/v1/jobs?wait=1" >/dev/null \
        || fail "submission failed with the breaker open"
    if curl -fsS "$base/metrics" | grep -q '"journal_skipped":[1-9]'; then
        skipped=1
        break
    fi
    sleep 0.05
done
[ -n "$skipped" ] || fail "journal_skipped did not count the unjournaled work"
code="$(curl -s -o /dev/null -w '%{http_code}' "$base/readyz")"
[ "$code" = "200" ] || fail "degraded daemon dropped out of readiness ($code)"
echo "    degraded: durability none, still serving, healthz stayed 200"

echo "==> disk returns: durability recovers on its own"
rm "$sentinel"
recovered=""
for _ in $(seq 1 100); do
    healthz_ok "recovery"
    curl -fsS "$base/metrics" >"$workdir/metrics-recovered.json"
    if grep -q '"durability":"journaled"' "$workdir/metrics-recovered.json"; then
        recovered=1
        break
    fi
    sleep 0.1
done
[ -n "$recovered" ] || fail "durability never recovered: $(cat "$workdir/metrics-recovered.json")"
echo "    durability back to journaled"

echo "==> recovery is real: a post-recovery cell survives SIGKILL"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$(cell 9000000)" "$base/v1/jobs?wait=1" >"$workdir/post-resp.json"
grep -q '"state":"done"' "$workdir/post-resp.json" || fail "post-recovery cell did not complete"
postkey="$(grep -o '"key":"[0-9a-f]\{64\}"' "$workdir/post-resp.json" | head -n1 | grep -o '[0-9a-f]\{64\}')"
curl -fsS "$base/v1/jobs/$postkey/result" >"$workdir/post-$postkey.json"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

start_daemon "$workdir/daemon-restart.log" \
    -workers 2 -cache-dir "$workdir/cache" -journal-dir "$workdir/journal"
grep -q 'journal: replayed' "$workdir/daemon-restart.log" || fail "restart did not replay the journal"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$(cell 9000000)" "$base/v1/jobs?wait=1" >/dev/null
curl -fsS "$base/v1/jobs/$postkey/result" >"$workdir/restart-$postkey.json"
cmp "$workdir/post-$postkey.json" "$workdir/restart-$postkey.json" \
    || fail "post-recovery cell differs across the restart"
curl -fsS "$base/metrics" | grep -q '"disk_hits":[1-9]' \
    || fail "restarted daemon did not serve the cell from the recovered disk cache"
stop_daemon

echo "PASS: overload e2e"
