#!/bin/sh
# Fuzz smoke: run every native fuzz target briefly (go only allows one
# -fuzz pattern per invocation, so targets run one at a time). Seed corpora
# live under each package's testdata/fuzz/<Target>/ and are always exercised
# first; new inputs found here stay in the build cache, while crashers are
# written to testdata and fail the run.
set -eu

FUZZTIME="${FUZZTIME:-20s}"

run() {
	pkg=$1
	target=$2
	echo "fuzz-smoke: $pkg $target ($FUZZTIME)"
	go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
}

run ./internal/value FuzzValueModel
run ./internal/hiveql FuzzParse
run ./internal/data FuzzReadRelation
run ./internal/data FuzzKeyPrefix
run ./internal/afk FuzzPartitionCompat
run ./internal/afk FuzzFixOps
run ./internal/optimizer FuzzFusedPipeline
run ./internal/optimizer FuzzFusedAgg
run ./internal/session FuzzMaintainVsRecompute
echo "fuzz-smoke ok"
