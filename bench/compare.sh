#!/usr/bin/env bash
# Same-run A/B comparison of the working tree against a git revision:
#
#   bash bench/compare.sh -base REV [-pairs N] [-workload W] [-seconds S]
#
# It exports REV with `git archive` into .bench_build/compare/base and
# replaces that tree's bench/ with the working tree's, so both sides run
# identical benchmark code. For each workload (default: all four) it runs
# N >= 10 pairs, each pair on its own seed, alternating which side goes
# first, and prints pipebench -compare's table: each side's median and
# quartiles, the share of pairs the working tree wins, and a verdict per
# metric ("unresolved" where the base's own spread exceeds the bound). It
# uses no network.
set -euo pipefail

usage() {
	echo "usage: bash bench/compare.sh -base REV [-pairs N] [-workload W] [-seconds S]" >&2
	exit 2
}

root=$(git rev-parse --show-toplevel)
cd "$root"
base="" pairs=10 seconds="" workloads=""
while [[ $# -gt 0 ]]; do
	case $1 in
	-base) base=${2:?}; shift 2 ;;
	-pairs) pairs=${2:?}; shift 2 ;;
	-workload) workloads=${2:?}; shift 2 ;;
	-seconds) seconds=${2:?}; shift 2 ;;
	*) usage ;;
	esac
done
[[ -n $base ]] || usage
((pairs >= 10)) || { echo "compare.sh: need at least 10 pairs" >&2; exit 2; }
seconds=${seconds:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
workloads=${workloads:-$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)}

out="$root/.bench_build/compare"
rm -rf "$out"
mkdir -p "$out/base"
git archive "$base" | tar -x -C "$out/base"
rm -rf "$out/base/bench"
cp -R bench "$out/base/bench"

for w in $workloads; do
	for i in $(seq 1 "$pairs"); do
		seed=$((1000 + i))
		order="base head"
		((i % 2)) && order="head base"
		for side in $order; do
			dir=$root
			[[ $side == base ]] && dir=$out/base
			(cd "$dir" && bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) |
				tail -n 1 >>"$out/$w.$side.jsonl"
		done
	done
	echo "== $w ($pairs pairs, $seconds s runs; base $base, head = working tree)"
	"$root/.bench_build/bin/pipebench" -root "$root" -compare "$out/$w.base.jsonl" "$out/$w.head.jsonl"
done
