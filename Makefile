GO ?= go

.PHONY: all build test vet lint fmt race bench bench-seed bench-micro bench-kernel timeline explore check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# rollvet is the repo's own determinism & protocol-invariant analyzer
# (internal/analysis): virtual-clock discipline, seeded randomness, ordered
# map iteration in protocol paths, no goroutines in sim-driven packages, a
# consistent wire.Kind table, plus the dataflow checks — arena pointers
# must not escape their handler (poolescape), //rollvet:hotpath call trees
# must not allocate (hotalloc), storage/wire errors must be consulted
# (stablewrite), and wire.Kind switches must be exhaustive or defaulted
# (kindswitch). `go test ./...` already enforces it for internal/... and
# the root package; this target also sweeps cmd/ and examples/, then pins
# the suppression count against .rollvet-allow-budget.
lint:
	$(GO) run ./cmd/rollvet ./...
	./scripts/suppression_budget.sh

# fmt checks gofmt cleanliness. internal/analysis/testdata is excluded on
# purpose: its fixtures carry deliberately unidiomatic formatting that the
# analyzer's // want annotations depend on (see ROADMAP).
fmt:
	@out=$$(gofmt -l . | grep -v '^internal/analysis/testdata/' || true); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The sharded scheduler's shard goroutines share the trace recorder; the
# race target exercises every package under the race detector. -short skips
# the n=1024 cells (hours under race); the sharded scheduler's window
# barrier is still raced by TestShardedGoldenTraceHash, which has no Short
# guard.
race:
	$(GO) test -race -short ./...

# bench runs the tiny reference sweep (the same axes as the committed
# BENCH_seed.json) and gates the result against it at threshold 0 — valid
# because the sweep is deterministic byte-for-byte. See DESIGN.md §9.
BENCH_AXES = -seeds 1,2 -n 4 -f 1 -profiles 1995 -styles nonblocking,blocking
bench:
	$(GO) run ./cmd/bench -label ci -out /tmp/BENCH_ci.json $(BENCH_AXES) -quiet
	$(GO) run ./cmd/bench compare BENCH_seed.json /tmp/BENCH_ci.json -threshold 0

# bench-seed regenerates the committed reference snapshot (and the golden
# test fixture) after an intentional behavior change.
bench-seed:
	$(GO) test ./internal/bench -run TestGolden -update
	$(GO) run ./cmd/bench -label seed -out BENCH_seed.json $(BENCH_AXES) -quiet

# timeline regenerates the D11 recovery-timeline exports (DESIGN §11) into
# ./timelines — deterministic byte-for-byte, so diffs mean behavior changed.
timeline:
	$(GO) run ./cmd/experiments -timeline timelines
	$(GO) run ./cmd/timeline timelines/timeline_D11_fbl.json

# explore runs the failure-schedule explorer's bounded-exhaustive pass at
# n=3 for all three protocol families (DESIGN §13): every decision point ×
# every victim, protocol invariants checked on every branch. Exits non-zero
# on any violation, printing a replayable counterexample.
explore:
	$(GO) run ./cmd/explore -out /tmp/explore_report.json

# bench-micro is the Go micro-benchmark suite (trace hot path).
bench-micro:
	$(GO) test -bench=. -benchmem ./internal/trace/

# bench-kernel runs the sim-kernel scheduler microbenchmarks against the
# in-test container/heap baseline, plus the AllocsPerRun regression gates.
bench-kernel:
	$(GO) test ./internal/sim -run 'Allocs' -bench 'BenchmarkKernel|BenchmarkContainerHeap' -benchmem

check: vet lint fmt test race bench
