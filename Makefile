.PHONY: build test verify stress bench bench-test bench-smoke fuzz-smoke loc loc-check

build:
	go build ./...

test:
	go test ./...

# Tier-1 gate: compile everything, vet, run the full suite with the race
# detector (the parallel MR engine and concurrent sessions depend on it), then
# the allocation / layout / retention budgets without it.
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

# Go micro-benchmarks, ad hoc. The performance gate is the repo benchmark:
# bash bench/run.sh -repeat N, and -compare between two commits' outputs
# (BENCHMARK.json, bench/README.md).
bench:
	go test -bench=. -benchmem

# bench/ is a nested module that `go build ./...` at the root never
# compiles: vet and test it so a removed export it uses fails here.
bench-test:
	cd bench && go vet ./... && go test ./...

# Quick end-to-end check of the paper-figure harness: fig7 with -metrics,
# validated by cmd/metricscheck.
bench-smoke:
	./scripts/bench_smoke.sh

# Short fuzz pass over every native fuzz target (FUZZTIME=20s by default),
# seeded from the checked-in corpora under */testdata/fuzz/.
fuzz-smoke:
	./scripts/fuzz_smoke.sh

# Non-test Go lines per internal package (the ROADMAP line budget), then the
# mr + optimizer + session subtotal ROADMAP direction 3 tracks.
loc:
	@find internal -name '*.go' ! -name '*_test.go' | xargs wc -l | awk '$$2 != "total" {split($$2, p, "/"); n[p[2]] += $$1; t += $$1} END {for (k in n) printf "%7d internal/%s\n", n[k], k; printf "%7d total\n", t}' | sort -k2
	@printf '%7d mr + optimizer + session\n' $$(cat $(EXECUTOR_SRC) | wc -l)

# The executor ratchet: direction 3 ("one plan, one executor") only ever
# lowers the mr + optimizer + session subtotal. Each slice sets
# EXECUTOR_LOC_MAX to its result; growing past it fails CI.
EXECUTOR_SRC     = $(shell find internal/mr internal/optimizer internal/session -name '*.go' ! -name '*_test.go')
EXECUTOR_LOC_MAX = 6449
loc-check:
	@n=$$(cat $(EXECUTOR_SRC) | wc -l); \
	if [ $$n -gt $(EXECUTOR_LOC_MAX) ]; then \
		echo "internal/mr + optimizer + session: $$n non-test lines, ratchet is $(EXECUTOR_LOC_MAX)" >&2; exit 1; \
	fi; \
	echo "executor loc $$n <= $(EXECUTOR_LOC_MAX)"
