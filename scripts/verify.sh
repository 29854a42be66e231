#!/bin/sh
# Tier-1 verification: formatting, build, vet, race-enabled full test suite,
# then the allocation, layout and retention budgets once more without the
# race detector (they skip themselves under it: its instrumentation
# allocates, so a count taken there means nothing).
set -eux

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go build ./...
go vet ./...
go test -race ./...
go test -count=1 -run 'Alloc|Sizeof|Retention' . ./internal/value ./internal/data ./internal/mr ./internal/optimizer ./internal/rewrite ./internal/session
