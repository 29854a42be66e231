.PHONY: build test verify stress bench bench-json bench-compare bench-smoke fuzz-smoke

# Benchmark trajectory files: BENCH_BASE is the previous PR's tracked
# numbers, BENCH_OUT is the file this PR refreshes and compares against it.
BENCH_BASE ?= BENCH_PR10.json
BENCH_OUT  ?= BENCH_PR15.json

build:
	go build ./...

test:
	go test ./...

# Tier-1 gate: compile everything, vet, and run the full suite with the
# race detector (the parallel MR engine and concurrent sessions depend on it).
verify:
	./scripts/verify.sh

# Lifecycle stress: the packages where pin / evict / retain / append
# interleave, repeated with and without the race detector (the detector
# shifts timing enough to hide races the plain build hits, and vice versa),
# so a lifecycle flake shows up as a failure instead of as luck.
STRESS_PKGS  ?= ./internal/session ./internal/service ./internal/storage
STRESS_COUNT ?= 20
stress:
	go test -count=$(STRESS_COUNT) $(STRESS_PKGS)
	go test -race -count=$(STRESS_COUNT) $(STRESS_PKGS)

bench:
	go test -bench=. -benchmem

# Refresh the tracked benchmark trajectory ($(BENCH_OUT)): runs the
# hot-path suites with -benchmem and fills the "after" column, preserving
# any existing "before" column. Use BENCH_COL=before to (re)baseline.
bench-json:
	./scripts/bench_json.sh $(BENCH_OUT)

# Regression gate: compare this PR's trajectory against the previous PR's,
# failing on any >20% ns/op slowdown.
bench-compare:
	go run ./cmd/benchjson -compare $(BENCH_BASE) $(BENCH_OUT)

# Quick end-to-end check of the benchmark harness: one experiment with
# -metrics, validated by cmd/metricscheck.
bench-smoke:
	./scripts/bench_smoke.sh

# Short fuzz pass over every native fuzz target (FUZZTIME=20s by default),
# seeded from the checked-in corpora under */testdata/fuzz/.
fuzz-smoke:
	./scripts/fuzz_smoke.sh
