#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through
# (--workload, --seed, --seconds, --trace). Run it from the repository
# root. The Go build cache, the binary, span files and snapshots all
# stay under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$build/ebrcbench" .)
exec "$build/ebrcbench" "$@"
