GO ?= go

.PHONY: all build vet vet-bench bench-test fmt-check test race figures-smoke fuzz bench bench-check bench-ab cover loc check clean

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

# bench-test runs the benchmark module's own tests, its -short smoke run
# and trace checks included (bench/run.sh test, no network): `./...`
# never reaches them, so without this a change that breaks the harness
# shows only when the benchmark is next run.
bench-test:
	bash bench/run.sh test

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
# the worker pool, the shared shortest-path cache, the progress writer, and
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
# two allocator targets, the fabric arbiter against the global fill, and
# the wire frame decoder (attachment included).
# Minimizing each new input stops after 10 runs: at the default 60 s the
# minimizer spends most of a 30 s budget.
fuzz:
	$(GO) test -fuzz=FuzzAllocate -fuzztime=30s -fuzzminimizetime=10x ./internal/maxmin
	$(GO) test -fuzz=FuzzSharesWithNewFlow -fuzztime=30s -fuzzminimizetime=10x ./internal/maxmin
	$(GO) test -fuzz=FuzzTableReallocate -fuzztime=30s -fuzzminimizetime=10x ./internal/fabric
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s -fuzzminimizetime=10x ./internal/wire

# The hot-path selection/churn/replication/RPC benchmarks, each run five
# times: bench2json keeps each one's median and range.
BENCH_NAMES = ^BenchmarkSelectSharded$$|^BenchmarkDigestMerge$$|^BenchmarkNetsimChurn$$|^BenchmarkSweepFigure6b$$|^BenchmarkAppendReplicated$$|^BenchmarkBulkRead4K$$|^BenchmarkBulkRead16K$$|^BenchmarkBulkRead64K$$|^BenchmarkBulkRead8M$$|^BenchmarkBulkReadPaced4K$$|^BenchmarkBulkReadPaced8M$$|^BenchmarkRPCRoundTrip$$|^BenchmarkRPCAttach256k$$|^BenchmarkRPCPooledFanout$$|^BenchmarkLookupCached$$|^BenchmarkLookupBatchValidate$$|^BenchmarkSelectRPC$$
BENCH_PKGS = ./internal/flowctl ./internal/netsim ./internal/experiment ./internal/dataserver ./internal/rpc ./internal/client ./internal/nameserver ./internal/flowserver
BENCH_RUN = $(GO) test -run '^$$' -bench '$(BENCH_NAMES)' -benchmem -count 5 -timeout 0 $(BENCH_PKGS)

# bench records the benchmarks' medians in BENCH_selection.json, the
# performance of the incremental allocator, the write path and the
# control-plane session layer on the host that ran it (its cpu line). No
# gate reads it: ns/op recorded on another host says nothing about this one.
bench:
	$(BENCH_RUN) | $(GO) run ./cmd/bench2json > BENCH_selection.json
	@cat BENCH_selection.json

# bench-check is the micro-benchmark gate CI's bench-smoke job runs:
# bench-ab against the merge base, HEAD~ (the previous commit on main;
# the base branch's tip in a pull request's merge commit). It fails if any
# median regressed more than 20% ns/op, or grew allocs/op by more than
# one allocation or 0.5% (bench2json's allocSlack). It needs the history:
# a shallow clone has no HEAD~.
bench-check:
	$(MAKE) bench-ab REF=HEAD~

# bench-ab A/B-tests the benchmarks against a commit on this host:
#
#	make bench-ab REF=HEAD~
#
# It extracts REF with git archive, builds each package's test binary on
# both sides with go test -c, deletes REF's source (so tree-walking tests
# never meet a second tree), then runs BENCH_NAMES from the binaries
# alternately, REF then the working tree, from the package directories,
# ten times: host drift lands on both sides alike, and five rounds were
# too few on a 2-vCPU host. -benchtime is a fixed count because b.N must
# not differ between sides: BenchmarkSelectSharded's cost grows with it. bench2json, given REF's raw runs as the baseline,
# prints each row's two medians, ranges and pairs won, and fails on a row
# over -max-regress (20%) or allocSlack. It needs no network: the module
# has no dependencies.
AB = .bench_build/ab
bench-ab:
	@test -n "$(REF)" || { echo 'usage: make bench-ab REF=<commit>' >&2; exit 2; }
	rm -rf $(AB) && mkdir -p $(AB)/ref $(AB)/bin
	git archive $(REF) | tar -x -C $(AB)/ref
	set -e; for p in $(BENCH_PKGS); do n=$$(basename $$p); \
		(cd $(AB)/ref && GOWORK=off $(GO) test -c -o ../bin/ref.$$n.test $$p); \
		GOWORK=off $(GO) test -c -o $(AB)/bin/cur.$$n.test $$p; \
	done
	rm -rf $(AB)/ref
	set -e; for i in 1 2 3 4 5 6 7 8 9 10; do for side in ref cur; do for p in $(BENCH_PKGS); do \
		(cd $$p && $(CURDIR)/$(AB)/bin/$$side.$$(basename $$p).test -test.run '^$$' \
			-test.bench '$(BENCH_NAMES)' -test.benchmem -test.benchtime 1000x -test.timeout 20m) >> $(AB)/$$side.txt; \
	done; done; done
	$(GO) run ./cmd/bench2json -compare $(AB)/ref.txt < $(AB)/cur.txt

# loc prints the number ROADMAP tracks: non-test Go lines outside bench/.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

check: build vet vet-bench fmt-check race

clean:
	$(GO) clean ./...
