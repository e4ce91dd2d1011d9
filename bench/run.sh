#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the working
# directory (the root of a checkout) and runs it with the given arguments.
# Everything the toolchain writes — build cache, temporary files, the binary —
# stays inside the checkout, and nothing is fetched.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
