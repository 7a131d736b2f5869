#!/usr/bin/env bash
# Builds the benchmark from source and runs it. BENCHMARK.json names this
# script as the command; everything it writes stays inside the checkout:
# the Go build cache and the binary under .bench_build/, the traced run's
# spans under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local

# The benchmark is a module of its own (benchmark/go.mod) that replaces the
# repo's module with the directory above it, so it builds against whatever
# program source the checkout holds. Without that source the build fails
# and nothing is printed.
(cd "$here" && go build -o "$build/rssd-benchmark" .)

exec "$build/rssd-benchmark" -out "$here/out" "$@"
