#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh                                  # all workloads, end to end
#   bash bench/run.sh -trace 1                         # per-layer traced run
#   bash bench/run.sh --workload sweep --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh compare -parent p*/results.json -change c*/results.json
#
# The binary, the Go build cache, the toolchain's own state and every
# output stay under .bench_build, so a run reads and writes only inside the
# checkout. Without the simulator module next to bench/ the build fails and
# so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd bench && go build -o "$build/tasp-bench" .)
exec "$build/tasp-bench" "$@"
