#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the checkout's root with the benchmark's own flags, e.g.
#
#   bash benchmark/run.sh --workload cold-predict --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and everything a run writes stay under
# .bench_build/ in the checkout. The benchmark is its own Go module
# (benchmark/go.mod) that builds the repository through a replace of "../",
# so outside a full checkout the build, and therefore the run, fails.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd benchmark && go build -o "$out/benchmark.new" .)
mv "$out/benchmark.new" "$out/benchmark"
exec "$out/benchmark" "$@"
