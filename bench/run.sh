#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: what BENCHMARK.json's command names. Everything the build
# and the run leave behind stays under bench/out, the Go build cache
# included, so nothing outside the checkout is read or written beyond the
# toolchain itself. A warm rebuild is a no-op of a few hundred milliseconds.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
export GOCACHE="$here/out/gocache" GOFLAGS=-buildvcs=auto GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$here/out/bench" .
exec "$here/out/bench" "$@"
