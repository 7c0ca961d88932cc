#!/usr/bin/env bash
# Crash-recovery end-to-end check for pipethermd, run by the CI chaos
# job and usable locally:
#
#   1. reference run: boot a daemon, run a fig6 batch to completion,
#      save every cell's result bytes, shut down cleanly
#   2. chaos run: boot a daemon with fresh cache + journal dirs and 4
#      workers, submit the same batch asynchronously, SIGKILL the
#      process mid-batch
#   3. restart the daemon over the same -cache-dir/-journal-dir with the
#      queue squeezed below the pending backlog, so journal replay must
#      take its blocking-admission path: the journal replays the
#      unfinished jobs (readyz gates on it), and every cell completes
#      with result bytes identical to the uninterrupted reference run
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
    "$workdir/pipethermd" -addr 127.0.0.1:0 -workers 2 "$@" \
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

batch='{"experiment":"fig6","benchmarks":["eon","gzip","art","mesa"],"cycles":4000000,"warmup":50000}'

echo "==> building pipethermd"
go build -o "$workdir/pipethermd" ./cmd/pipethermd

echo "==> reference run (uninterrupted)"
start_daemon "$workdir/daemon-ref.log" -cache-dir "$workdir/cache-ref"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$batch" \
    "$base/v1/jobs?wait=1" >"$workdir/batch-ref.json"
grep -q '"state":"done"' "$workdir/batch-ref.json" || fail "reference batch not done: $(cat "$workdir/batch-ref.json")"
# Cell keys only: in the batch status JSON each cell's key is followed
# by its benchmark, which the batch's own key is not.
keys="$(grep -o '"key":"[0-9a-f]\{64\}","benchmark"' "$workdir/batch-ref.json" | grep -o '[0-9a-f]\{64\}' | sort -u)"
nkeys="$(echo "$keys" | wc -l)"
[ "$nkeys" -eq 8 ] || fail "reference batch has $nkeys cell keys, want 8"
for key in $keys; do
    curl -fsS "$base/v1/jobs/$key/result" >"$workdir/ref-$key.json"
done
stop_daemon
echo "    $nkeys reference cells saved"

echo "==> chaos run: SIGKILL mid-batch (4 workers)"
start_daemon "$workdir/daemon-chaos1.log" \
    -workers 4 \
    -cache-dir "$workdir/cache" -journal-dir "$workdir/journal"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$batch" \
    "$base/v1/jobs" >/dev/null
# SIGKILL as soon as some cells are done but not all: that leaves done
# records, a running job to interrupt, and queued submits to replay.
completed=0
for _ in $(seq 1 400); do
    completed="$(curl -fsS "$base/metrics" | sed -n 's/.*"jobs_completed":\([0-9]*\).*/\1/p')"
    [ -n "$completed" ] && [ "$completed" -ge 1 ] && break
    sleep 0.05
done
[ -n "$completed" ] && [ "$completed" -ge 1 ] || fail "no cell completed before the kill"
[ "$completed" -lt 8 ] || fail "batch finished before the kill; nothing to interrupt"
echo "    killing after $completed/8 cells"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

# -queue 2 is smaller than the pending backlog can be (up to 7 jobs),
# so replay cannot admit everything at once: it must block on freed
# capacity and feed jobs in as workers drain them.
echo "==> restart over the same cache + journal (queue squeezed to 2)"
start_daemon "$workdir/daemon-chaos2.log" \
    -workers 4 -queue 2 \
    -cache-dir "$workdir/cache" -journal-dir "$workdir/journal"
grep -q 'journal: replayed' "$workdir/daemon-chaos2.log" || fail "restart did not replay the journal"
pending="$(sed -n 's/.*, \([0-9]*\) pending jobs resubmitted.*/\1/p' "$workdir/daemon-chaos2.log" | head -n1)"
[ -n "$pending" ] && [ "$pending" -ge 1 ] || fail "no pending jobs replayed after SIGKILL (got '$pending')"
echo "    $pending interrupted jobs resubmitted"

for _ in $(seq 1 200); do
    code="$(curl -s -o /dev/null -w '%{http_code}' "$base/readyz")"
    [ "$code" = "200" ] && break
    sleep 0.05
done
[ "$code" = "200" ] || fail "readyz never recovered after replay (last: $code)"

echo "==> every cell completes byte-identical to the reference"
for key in $keys; do
    done_=""
    for _ in $(seq 1 600); do
        if curl -fsS "$base/v1/jobs/$key" 2>/dev/null | grep -q '"state":"done"'; then
            done_=1
            break
        fi
        sleep 0.1
    done
    [ -n "$done_" ] || fail "cell $key never completed after the restart"
    curl -fsS "$base/v1/jobs/$key/result" >"$workdir/chaos-$key.json"
    cmp "$workdir/ref-$key.json" "$workdir/chaos-$key.json" \
        || fail "cell $key differs from the uninterrupted run"
done

echo "==> journal settles: a third start replays nothing"
stop_daemon
start_daemon "$workdir/daemon-chaos3.log" \
    -cache-dir "$workdir/cache" -journal-dir "$workdir/journal"
grep -q ' 0 pending jobs resubmitted' "$workdir/daemon-chaos3.log" \
    || fail "journal did not settle after recovery: $(grep 'journal:' "$workdir/daemon-chaos3.log")"
stop_daemon

echo "PASS: chaos e2e"
