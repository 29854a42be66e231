#!/usr/bin/env bash
# Build the benchmark from source and run it. Every file the build and the
# run write stays inside the checkout: the Go caches, temporary files and
# the binary go under .bench_build/, results under bench/out/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's own settings and counters
export GOTOOLCHAIN=local
export GOPROXY=off

# stdout carries the result; the build says nothing unless it fails.
(cd "$root/bench" && go build -o "$build/opportune-bench" .) >&2

cd "$root"
exec "$build/opportune-bench" "$@"
