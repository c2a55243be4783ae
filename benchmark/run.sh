#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root. Everything the Go toolchain writes (build cache, telemetry counters,
# a GOPATH when the environment has none) is kept under .bench_build, so a
# run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config"
export GOPATH="${GOPATH:-$build/gopath}"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/nbbs-benchmark" .)
cd "$root"
exec "$build/nbbs-benchmark" "$@"
