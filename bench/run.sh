#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# The binary, the Go build cache and the stores all live under .bench_build/
# in the checkout, so nothing is read or written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
