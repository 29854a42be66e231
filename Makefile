.PHONY: build test verify examples stress bench bench-test bench-smoke fuzz-smoke loc loc-check reach

build:
	go build ./...

test:
	go test ./...

# Tier-1 gate: compile everything, vet, run the full suite with the race
# detector (the parallel MR engine and concurrent sessions depend on it), then
# the allocation / layout / retention budgets without it.
verify:
	./scripts/verify.sh

# The examples document the public API: run each one, failing on the first
# non-zero exit (`go build ./...` only compiles them).
EXAMPLES = $(sort $(dir $(wildcard examples/*/main.go)))
examples:
	@set -e; for d in $(EXAMPLES); do echo "go run ./$$d"; go run ./$$d > /dev/null; done

# Lifecycle stress: the packages where evict / retain / append / delete
# interleave, repeated with and without the race detector (the detector
# shifts timing enough to hide races the plain build hits, and vice versa),
# so a lifecycle flake shows up as a failure instead of as luck. Then the
# runs-beside-appends stress alone, 3 000 times across GOMAXPROCS 1, 2, 4
# (a stale view registered after an append failed it about once in 3 000),
# and 1 002 times more under the race detector.
STRESS_PKGS  ?= ./internal/session ./internal/service ./internal/storage
STRESS_COUNT ?= 20
stress:
	go test -count=$(STRESS_COUNT) $(STRESS_PKGS)
	go test -race -count=$(STRESS_COUNT) $(STRESS_PKGS)
	go test -run 'TestConcurrentAppendsWithRunsStress$$' -count=1000 -cpu 1,2,4 ./internal/session
	go test -race -run 'TestConcurrentAppendsWithRunsStress$$' -count=334 -cpu 1,2,4 ./internal/session

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

# Statement reach of the user paths (every entry point built with -cover,
# runs merged with go tool covdata): reach per package and the functions
# under internal/ no run reached. A report, not a gate (ROADMAP 18).
reach:
	./scripts/reach.sh

# Non-test Go lines per internal package (the ROADMAP line budget), then the
# mr + optimizer + session subtotal ROADMAP direction 6 tracks.
loc:
	@find internal -name '*.go' ! -name '*_test.go' | xargs wc -l | awk '$$2 != "total" {split($$2, p, "/"); n[p[2]] += $$1; t += $$1} END {for (k in n) printf "%7d internal/%s\n", n[k], k; printf "%7d total\n", t}' | sort -k2
	@printf '%7d mr + optimizer + session\n' $$(cat $(EXECUTOR_SRC) | wc -l)

# Line ratchets: "one plan, one executor" (ROADMAP direction 6) only ever
# lowers the mr + optimizer + session subtotal, and "a smaller rewriter"
# (direction 7(c)) the internal/rewrite total. Each change that shrinks one
# sets its maximum to the result; growing past it fails CI.
EXECUTOR_SRC     = $(shell find internal/mr internal/optimizer internal/session -name '*.go' ! -name '*_test.go')
EXECUTOR_LOC_MAX = 5547
REWRITE_SRC      = $(shell find internal/rewrite -name '*.go' ! -name '*_test.go')
REWRITE_LOC_MAX  = 1634
loc-check:
	@n=$$(cat $(EXECUTOR_SRC) | wc -l); \
	if [ $$n -gt $(EXECUTOR_LOC_MAX) ]; then \
		echo "internal/mr + optimizer + session: $$n non-test lines, ratchet is $(EXECUTOR_LOC_MAX)" >&2; exit 1; \
	fi; \
	echo "executor loc $$n <= $(EXECUTOR_LOC_MAX)"
	@n=$$(cat $(REWRITE_SRC) | wc -l); \
	if [ $$n -gt $(REWRITE_LOC_MAX) ]; then \
		echo "internal/rewrite: $$n non-test lines, ratchet is $(REWRITE_LOC_MAX)" >&2; exit 1; \
	fi; \
	echo "rewrite loc $$n <= $(REWRITE_LOC_MAX)"
