#!/bin/bash
# The command BENCHMARK.json names. Builds the benchmark from source into
# .bench_build/ at the repository root — Go's build cache and temporary
# files too, so nothing is read or written outside the checkout — and runs
# it from the root with the arguments given:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# With no arguments it runs the whole protocol, like `go run -C benchmark .`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/toposense-benchmark" .)

cd "$root"
exec "$build/toposense-benchmark" "$@"
