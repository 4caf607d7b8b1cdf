#!/usr/bin/env bash
# The benchmark's one command: build bench/ from source into .bench_build/
# (ignored by git) and become the binary. `exec`, not a child: nothing
# outlives this script, and `go run` — whose child survives a killed parent —
# is never used. Everything the build writes stays inside the checkout.
#
#   bash bench/run.sh --workload steady-mem --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -trace 1            # all five workloads, untraced then traced
#   bash bench/run.sh -sets 2             # repeatability mode
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
