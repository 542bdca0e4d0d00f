#!/usr/bin/env bash
# CI gate: formatting, build, vet, the full test suite under the race
# detector (the serve/tomographyd/mc concurrency guarantees depend on
# passing -race, not just the plain run), a short fuzz smoke on each
# fuzz target, and a one-iteration pass over every benchmark so the
# bench harness can never silently rot.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...
go test -race ./...

go test -run='^$' -fuzz=FuzzSolve -fuzztime=10s ./internal/lp
go test -run='^$' -fuzz=FuzzParseEdgeList -fuzztime=10s ./internal/graph
go test -run='^$' -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/store
go test -run='^$' -fuzz=FuzzCSRFromTriplets -fuzztime=10s ./internal/sparse
go test -run='^$' -fuzz='^FuzzSparseCholesky$' -fuzztime=10s ./internal/sparse
go test -run='^$' -fuzz='^FuzzJSONNumber$' -fuzztime=10s ./internal/serve
go test -run='^$' -fuzz='^FuzzParseStreamRound$' -fuzztime=10s ./internal/serve

go test -run='^$' -bench=. -benchtime=1x ./...
