#!/bin/sh
# CI entry point: build, vet, formatting, and the full test suite under
# the race detector (the chaos fault-injection scenarios run as part of
# it). Mirrors `make check` for environments without make. Not part of
# it, being open-ended: `make fuzz` gives FuzzAllocate,
# FuzzSharesWithNewFlow (internal/maxmin) and FuzzReadFrame
# (internal/wire) 30 s each beyond the seed corpora this suite replays.
set -eu

cd "$(dirname "$0")"

echo '--- go build'
go build ./...

echo '--- go vet'
go vet ./...

echo '--- go vet (bench/, its own module: the stubs it calls must still compile)'
(cd bench && GOWORK=off GOFLAGS=-buildvcs=false go vet ./...)

echo '--- govulncheck'
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
else
	echo 'govulncheck not installed; skipping (the GitHub workflow runs it)'
fi

echo '--- staticcheck'
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo 'staticcheck not installed; skipping (the GitHub workflow runs it)'
fi

echo '--- gofmt'
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed:"
	echo "$unformatted"
	exit 1
fi

echo '--- go test -race'
go test -race -shuffle=on ./...

echo '--- non-test Go lines outside bench/ (the number ROADMAP tracks)'
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
