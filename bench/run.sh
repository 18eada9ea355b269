#!/usr/bin/env bash
# The benchmark's one command: builds the harness from source and runs it
# with the given arguments. Everything Go writes (build cache, module
# cache, its own config) is pointed into the checkout's .bench_build/.
#
#   bash bench/run.sh --workload ingest_td --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                  # all four workloads
#   bash bench/run.sh -trace 1         # all four, traced (ladder + trace files)
#   bash bench/run.sh -sets 2 -runs 10 # repeatability
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -C "$root/bench" -o "$build/odhbench" .
cd "$root"
exec "$build/odhbench" "$@"
