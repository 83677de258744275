#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source
# and runs it, passing every argument through.
#
#   bash benchmark/run.sh --workload wall-halo --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout.  Everything it writes — the Go
# build cache, the binary, trace files, the store probe's cache
# directory — stays under .bench_build/ in that checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/scratch"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # go env file and telemetry counters
export GOTOOLCHAIN=local
export GOWORK=off

# The module in benchmark/ replaces "kali" with the checkout around it;
# without that source tree the build fails and nothing is measured.
go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" -scratch "$build/scratch" "$@"
