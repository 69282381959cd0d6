#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: BENCHMARK.json's command. Everything it writes (Go's build cache,
# the binary, temporary data directories) goes under .bench_build/ at the
# checkout root, so nothing outside the checkout is touched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-mod=mod
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"

go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
