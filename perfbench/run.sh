#!/usr/bin/env bash
# Builds 3dpro-server and the benchmark from source, then runs the benchmark
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload joins-warm --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/3dpro-server" ./cmd/3dpro-server
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@" --build-dir "$build"
