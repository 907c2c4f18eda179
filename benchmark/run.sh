#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark and spatialjoind
# from the checkout's sources into .bench_build/ at the checkout's root
# (Go's build cache and temporary files too, so nothing is written
# outside the checkout), then runs the benchmark from the root with the
# arguments given. In a directory without the repository's sources the
# build fails and so does this script, before any result is printed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(
	cd "$here"
	go build -o "$build/benchmark" .
	go build -o "$build/spatialjoind" repro/cmd/spatialjoind
)

export SPATIALJOIND_BIN="$build/spatialjoind" BENCH_WORK_DIR="$build"
cd "$root"
exec "$build/benchmark" "$@"
