#!/usr/bin/env bash
# Statement reach of the user paths (ROADMAP 18): build every entry point
# with coverage over opportune/..., run the paper figures, the metrics
# export, the service under load, one analyst through the CLI in every
# mode, the benchmark's four workloads and every example, merge the runs
# with `go tool covdata`, and print statement reach per package and the
# functions under internal/ that no run reached.
#
# A report, not a gate: `make reach` runs it, `make verify` does not.
# About a minute on two cores; everything it writes goes to a temporary
# directory it removes on exit.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin" cov="$tmp/cov"
mkdir -p "$bin" "$cov" "$tmp/run"
cd "$root"

build() { go build -cover -coverpkg=opportune/... -o "$bin/$1" "$2"; }
build benchrunner ./cmd/benchrunner
build opportuned ./cmd/opportuned
build opportune ./cmd/opportune
for d in examples/*/; do
	build "example-$(basename "$d")" "./$d"
done
# bench/ is a module of its own: build it from inside, as bench/run.sh does.
(cd bench && go build -cover -coverpkg=opportune/... -o "$bin/bench" .)

# Each run writes its own counter files into $cov; its output is shown
# only when it fails.
run() {
	if ! (cd "$tmp/run" && GOCOVERDIR="$cov" "$@" >"$tmp/run.log" 2>&1); then
		cat "$tmp/run.log" >&2
		echo "reach: $* failed" >&2
		exit 1
	fi
}
run "$bin/benchrunner" -exp all -quick
run "$bin/benchrunner" -exp fig7 -quick -metrics "$tmp/metrics.json"
run "$bin/opportuned" -load -quick
for mode in bfr off dp syntactic; do
	run "$bin/opportune" -workload -tweets 2000 -analyst 5 -mode "$mode"
done
run "$bin/bench" -workload all -quick -seconds 1 -out "$tmp/bench"
for ex in "$bin"/example-*; do
	run "$ex"
done

echo "statement reach per package:"
go tool covdata percent -i="$cov" | sed 's/^/  /'
# The bench module's own files are not in this module: cover cannot
# resolve them, and they are not what the audit is about.
go tool covdata textfmt -i="$cov" -o "$tmp/all.out"
grep -v '^opportune/bench/' "$tmp/all.out" >"$tmp/profile.out"
go tool cover -func="$tmp/profile.out" >"$tmp/func.txt"
echo
echo "all statements outside bench/: $(awk '$1 == "total:" {print $NF}' "$tmp/func.txt")"
echo
never=$(awk '$NF == "0.0%" && $1 ~ /^opportune\/internal\// {sub(/^opportune\//, "", $1); print $1, $2}' "$tmp/func.txt")
echo "functions under internal/ never reached: $(printf '%s' "$never" | grep -c . || true)"
printf '%s\n' "$never" | sed 's/^/  /'
