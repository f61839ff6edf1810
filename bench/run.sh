#!/usr/bin/env bash
# Builds cocgbench from this checkout and runs it with the given arguments.
# This is the command BENCHMARK.json names. Everything the build writes —
# the Go build cache and the binary — stays under .bench_build/ in the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache" GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/cocgbench ./bench/cocgbench
exec .bench_build/cocgbench "$@"
