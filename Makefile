GO ?= go

.PHONY: all build vet vet-bench fmt-check test race figures-smoke fuzz bench bench-check cover loc check clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-bench compiles and vets the benchmark module. bench/ has its own
# go.mod, so `./...` above never reaches it, and it calls the service
# stubs (nameserver, flowserver, dataserver, wire): without this a stub
# signature change passes every check here and fails only when the
# benchmark is next run. Same environment as bench/run.sh.
vet-bench:
	cd bench && GOWORK=off GOFLAGS=-buildvcs=false $(GO) vet ./...

# fmt-check fails (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# race runs the whole suite under the race detector — chaos scenarios and
# the sim-vs-emu cross-validation included — with shuffled test order so
# inter-test state leaks surface. This is the bar CI holds every change to.
race:
	$(GO) test -race -shuffle=on ./...

# figures-smoke runs the parallel figure-sweep determinism and golden
# tests under the race detector at -j 8: a tiny grid, but it exercises
# the worker pool, the shared shortest-path cache, the progress mux, and
# the byte-identical-tables invariant end to end. Every golden runs on
# the one-shard flowctl plane; the shard-count sweep golden and the
# flowctl conformance suite (ownership, digest staleness, epoch
# failover, route rebinding) cover the partitioned shapes.
figures-smoke:
	$(GO) test -race -count=1 \
		-run 'TestSweep|TestGolden|TestRunParallelFlagsMatchSequential|TestShardSweepWorkerInvariance|TestShardedRunCompletes' \
		./internal/experiment ./cmd/mayflower-sim
	$(GO) test -race -count=1 ./internal/flowctl

# cover runs the suite with coverage (-short: the timing-sensitive paced
# emulation tests distort under instrumentation and are covered by the race
# job), writes the profile to cover.out and the per-package summary plus
# total to cover.txt. CI uploads both as a workflow artifact.
cover:
	$(GO) test -short -coverprofile=cover.out -covermode=atomic ./... > cover.txt
	@cat cover.txt
	$(GO) tool cover -func=cover.out | tail -1 | tee -a cover.txt

# fuzz gives each fuzz target a short budget beyond its seed corpus: the
# two allocator targets and the wire frame decoder (attachment included).
fuzz:
	$(GO) test -fuzz=FuzzAllocate -fuzztime=30s ./internal/maxmin
	$(GO) test -fuzz=FuzzSharesWithNewFlow -fuzztime=30s ./internal/maxmin
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/wire

# bench runs the hot-path selection/churn/replication/RPC benchmarks and
# records the result in BENCH_selection.json, the committed performance
# baseline for the incremental allocator, the write path, and the
# control-plane session layer.
bench:
	$(GO) test -run '^$$' -bench '^BenchmarkSelect$$|^BenchmarkSelectSharded$$|^BenchmarkDigestMerge$$|^BenchmarkNetsimChurn$$|^BenchmarkSweepFigure6b$$|^BenchmarkAppendReplicated$$|^BenchmarkBulkRead4K$$|^BenchmarkBulkRead8M$$|^BenchmarkBulkReadPaced4K$$|^BenchmarkBulkReadPaced8M$$|^BenchmarkRPCRoundTrip$$|^BenchmarkRPCAttach256k$$|^BenchmarkRPCPooledFanout$$|^BenchmarkLookupCached$$|^BenchmarkLookupBatchValidate$$' \
		-benchmem -timeout 0 ./internal/flowserver ./internal/flowctl ./internal/netsim ./internal/experiment ./internal/dataserver ./internal/rpc ./internal/client ./internal/nameserver \
		| $(GO) run ./cmd/bench2json > BENCH_selection.json
	@cat BENCH_selection.json

# bench-check reruns the hot-path benchmarks and fails if any of them
# regressed more than 20% ns/op (or grew allocs/op by more than one
# allocation or 0.5%, bench2json's allocSlack) against the committed
# BENCH_selection.json baseline. Runs at the same default 1s benchtime the
# baseline was recorded with — shorter runs shrink N enough that one-time
# warm-up allocations tip the allocs/op average. CI's bench-smoke job
# runs this.
bench-check:
	$(GO) test -run '^$$' -bench '^BenchmarkSelect$$|^BenchmarkSelectSharded$$|^BenchmarkDigestMerge$$|^BenchmarkNetsimChurn$$|^BenchmarkSweepFigure6b$$|^BenchmarkAppendReplicated$$|^BenchmarkBulkRead4K$$|^BenchmarkBulkRead8M$$|^BenchmarkBulkReadPaced4K$$|^BenchmarkBulkReadPaced8M$$|^BenchmarkRPCRoundTrip$$|^BenchmarkRPCAttach256k$$|^BenchmarkRPCPooledFanout$$|^BenchmarkLookupCached$$|^BenchmarkLookupBatchValidate$$' \
		-benchmem -timeout 0 ./internal/flowserver ./internal/flowctl ./internal/netsim ./internal/experiment ./internal/dataserver ./internal/rpc ./internal/client ./internal/nameserver \
		| $(GO) run ./cmd/bench2json -compare BENCH_selection.json -max-regress 0.20

# loc prints the number ROADMAP tracks: non-test Go lines outside bench/.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

check: build vet vet-bench fmt-check race

clean:
	$(GO) clean ./...
