#!/bin/sh
# Smoke test for the paper-figure harness and its observability export: run
# one quick experiment with -metrics and validate the output file. (The
# repo's own extensions are measured by bench/; `make bench-test` covers it.)
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/benchrunner" ./cmd/benchrunner
go build -o "$tmp/metricscheck" ./cmd/metricscheck

"$tmp/benchrunner" -quick -exp fig7 -metrics "$tmp/metrics.json" >"$tmp/bench.out"
"$tmp/metricscheck" "$tmp/metrics.json"

echo "bench-smoke ok"
