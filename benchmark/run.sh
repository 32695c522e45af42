#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the arguments given: the `command` of BENCHMARK.json. Everything the
# build writes stays inside the checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
cd "$root"
go build -o "$build/cacheagg-benchmark" ./benchmark
exec "$build/cacheagg-benchmark" "$@"
