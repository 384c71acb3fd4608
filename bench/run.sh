#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout, then run it. Called from the repository root as
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes stays inside the checkout: the Go build cache and the
# binary under .bench_build/, trace files under bench/out/ (both ignored by
# git). It needs no network: the benchmark imports only the standard
# library and this repository's own packages.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

# go build is a no-op when nothing changed; the first call in a checkout
# compiles the standard library into .bench_build/gocache.
(cd "$here" && go build -o "$build/iustitia-bench" .)

cd "$root"
exec "$build/iustitia-bench" -outdir "$here/out" "$@"
