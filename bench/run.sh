#!/usr/bin/env bash
# The benchmark's one-line entry point. From the root of a checkout:
#
#   bash bench/run.sh --workload read_small_ctl --seed 1 --seconds 20 --trace 0
#                            one run (what BENCHMARK.json's command is)
#   bash bench/run.sh all    one untraced run of every workload
#   bash bench/run.sh aa [N] two interleaved sets of N (default 10) runs per
#                            workload, compared; stdout is bench/AA.md
#   bash bench/run.sh report one traced run per workload; stdout is bench/PERF.md
#   bash bench/run.sh test   the package's tests, -short smoke included
#
# bench/ is its own Go module (the benchmark contract asks for a package
# with its own build file), so the repo's `go test ./...` does not reach
# it; `run.sh test` does. Everything the build and the runs write — the Go
# build cache, temporary files, cluster state, traces — stays inside the
# checkout, under .bench_build/ and bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

seconds=20 # BENCHMARK.json's run_seconds

if [ "${1:-}" = test ]; then
	cd "$here" && exec go test -short ./...
fi

# Always build: a warm cache makes it a no-op, and a stale binary would
# measure the wrong code.
(cd "$here" && go build -o "$build/e2ebench" ./cmd/e2ebench)
bin=("$build/e2ebench" --workdir "$build/work" --out "$here/out")

case "${1:-}" in
all)
	for w in read_small_ctl read_large_stream append_beside_reads fabric_contended; do
		"${bin[@]}" --workload "$w" --seed "${SEED:-1}" --seconds "$seconds" --trace 0
	done
	;;
aa)
	exec "${bin[@]}" -aa "${2:-10}" --seed "${SEED:-1}" --seconds "$seconds"
	;;
report)
	exec "${bin[@]}" -report --seed "${SEED:-1}" --seconds "$seconds"
	;;
*)
	exec "${bin[@]}" "$@"
	;;
esac
