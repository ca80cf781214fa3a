#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given, the
# way BENCHMARK.json's command does from the root of a checkout:
#
#   bash benchmark/run.sh --workload sssp-road --seed 42 --seconds 15 --trace 0
#
# Everything the build writes — the binary, the Go build cache, temporary
# files, the toolchain's own counters — stays under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: $root is not the hdcps module (no go.mod or internal/): nothing to measure" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
go build -buildvcs=false -o "$build/hdcps-benchmark" ./benchmark
exec "$build/hdcps-benchmark" "$@"
