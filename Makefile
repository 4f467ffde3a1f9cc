GO ?= go
DATE := $(shell date +%Y%m%d)

.PHONY: all build test bench bench-smoke bench-allocgate check fmt vet lint race race-shard ckpt-fuzz flake-hunt e2e

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full benchmark sweep. -count=1 keeps one sample per benchmark so the
# run finishes in minutes; BENCH_<date>.json records the suite
# wall-clock via the stampbench harness for before/after comparisons
# (see BENCH_baseline.json for the committed reference).
bench:
	$(GO) test -bench=. -benchmem -count=1 ./...
	$(GO) run ./cmd/stampbench -bench-out BENCH_$(DATE).json > /dev/null

# One iteration of every benchmark: catches benchmarks that fail or
# regress catastrophically without paying for a full measurement run.
# Includes the window-churn allocation gate below.
bench-smoke: bench-allocgate
	$(GO) test -bench=. -benchtime=1x -count=1 ./... > /dev/null

# The sharded kernel's steady-state window loop (floor scan, horizon
# dispatch, cross-shard post merge) must be allocation-free. The gate
# fails on a nonzero allocs/op column (warm-up allocations amortize to
# zero over 1000 iterations).
bench-allocgate:
	@out="$$($(GO) test -bench='^BenchmarkShard_WindowChurn$$' -benchmem -benchtime=1000x -run='^$$' -count=1 ./internal/sim/)"; \
	echo "$$out" | grep -E '^BenchmarkShard_WindowChurn'; \
	allocs="$$(echo "$$out" | awk '$$0 ~ "^BenchmarkShard_WindowChurn" {print $$(NF-1)}')"; \
	if [ "$$allocs" != "0" ]; then echo "FAIL: BenchmarkShard_WindowChurn reports $$allocs allocs/op, want 0"; exit 1; fi

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# go vet plus stampvet, the repo's own STAMP-aware analyzer engine
# (cmd/stamplint): determinism, map-iteration order, uncharged
# backdoors, S-round misuse, checkpoint-unsafe region element types,
# shard-safety and charge-flow accounting.
lint: vet
	$(GO) run ./cmd/stamplint ./...

# Everything that runs host goroutines under the Go race detector: the
# kernel's baton handoffs and teardown, the shard windows, the observer
# sinks read while a run streams, stampserve, and the lint engine's
# parallel type-checks and facts pass.
race: race-shard
	$(GO) test -race ./internal/sim/... ./internal/core/... ./internal/experiments/... ./internal/obs/... ./internal/trace/... ./internal/msgpass/... ./internal/fault/... ./internal/racedet/... ./internal/ckpt/... ./internal/serve/... ./internal/lint/...

# Shard-focused race pass: window dispatch and cross-shard channel
# handoffs under the Go race detector. The *Shard* suites iterate the
# 1/2/4 shards × 1/2/4 workers matrix internally, so this exercises
# every concurrent layout explicitly (the full `race` run above also
# reaches them via the package list).
race-shard:
	$(GO) test -race -count=1 -run 'Shard' ./internal/sim/ ./internal/core/ ./internal/experiments/ ./internal/racedet/ ./internal/ckpt/

# Black-box e2e: boot stampserve on an ephemeral port, submit scenarios
# over HTTP and assert on the event stream, /metrics and the scenario
# cache. Uses bats when installed, plain bash otherwise; needs curl+jq.
e2e:
	bash scripts/e2e/run.sh

# Kill/restore equivalence fuzz: crash a checkpointed run at many event
# budgets, restore, and require the final virtual time, energy and
# iterates to match a clean run bit-for-bit (1, 2 and 4 host workers,
# fast and slow kernel paths). On failure the test drops the offending
# checkpoint blobs plus a diff into $CKPT_FAIL_DIR if it is set.
ckpt-fuzz:
	$(GO) test -run 'TestKillRestoreEquivalence|TestDoubleCrashRestore' -count=1 ./internal/ckpt

# Execution-equivalence flake hunt: FLAKE_HUNT_N fresh randomized seeds
# (wall-clock master seed, every run new territory) through the kill and
# fast-path equivalence fuzzes (fast path against slow path) and the
# shard equivalence fuzz. Every seed
# is logged; reproduce a failure exactly with
# `make flake-hunt FLAKE_HUNT_SEED=<master seed from the log>`.
FLAKE_HUNT_N ?= 500
flake-hunt:
	FLAKE_HUNT_N=$(FLAKE_HUNT_N) FLAKE_HUNT_SEED=$(FLAKE_HUNT_SEED) $(GO) test -run 'TestFlakeHunt' -count=1 -v ./internal/sim/

# The PR gate: everything must build, lint (go vet + stamplint)
# and be gofmt-clean, the simulator, core, experiment harness, observability,
# race-detector, checkpoint, serve and lint packages must pass under the
# Go race detector, the checkpoint kill/restore fuzz must hold bit-for-bit, and
# every benchmark must at least run.
check: build vet lint fmt race ckpt-fuzz bench-smoke
	$(GO) test ./...
