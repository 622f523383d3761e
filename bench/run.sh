#!/bin/bash
# The benchmark contract's entry point (BENCHMARK.json's "command"): build
# the driver from this checkout's source, keeping the compiler's cache and
# the binary inside the checkout, then run it with the arguments given.
# By hand, `go run ./bench` does the same with the user's own Go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/zipper-bench" ./bench
exec "$out/zipper-bench" "$@"
