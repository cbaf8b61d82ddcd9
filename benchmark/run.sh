#!/usr/bin/env bash
# Entry point of the driver contract (BENCHMARK.json): build the benchmark
# from source inside the checkout, then run it with the driver's arguments.
# Everything the build writes — the binary, Go's build cache and its
# temporary files — stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
