#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# <checkout>/.bench_build (build cache included, so nothing is written
# outside the checkout) and replaces itself with the binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOFLAGS=-buildvcs=false
export GOPATH="${GOPATH:-$build/go-path}"
cd "$here"
go build -o "$build/xt-benchmark" . >&2
exec "$build/xt-benchmark" "$@"
