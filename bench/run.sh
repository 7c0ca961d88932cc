#!/usr/bin/env bash
# Builds the benchmark driver (bench/cmd/pipebench) and pipethermd from the
# checkout it is run in, then runs the driver with the given arguments:
#
#   bash bench/run.sh --workload paper-matrix --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the run's scratch files stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/pipethermd" || ! -f "$root/bench/go.mod" ]]; then
	echo "run.sh: $root is not the repository root (need go.mod, cmd/pipethermd and bench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME and GOPATH keep the go command's own files (telemetry
# counters, its env file, the module cache) inside the checkout as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The load generator, the simulator children and pipethermd all see two
# CPUs, whatever the host has, so runs compare across machines.
export GOMAXPROCS=2

go build -o "$out/bin/pipethermd" ./cmd/pipethermd
(cd bench && go build -o "$out/bin/pipebench" ./cmd/pipebench)
exec "$out/bin/pipebench" -root "$root" -bin "$out/bin" "$@"
