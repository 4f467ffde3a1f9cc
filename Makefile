GO ?= go

.PHONY: all build test bench bench-smoke check fmt vet lint race golden-cpus ckpt-fuzz flake-hunt e2e examples

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full sweep of the Go micro-benchmarks. -count=1 keeps one sample per
# benchmark so the run finishes in minutes. End-to-end and per-layer
# measurements against a parent commit are perfbench's job (see
# perfbench/README.md).
bench:
	$(GO) test -bench=. -benchmem -count=1 ./...

# One iteration of every benchmark: catches benchmarks that fail or
# regress catastrophically without paying for a full measurement run.
# Zero-allocation contracts are AllocsPerRun tests under `go test`.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -count=1 ./... > /dev/null

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# go vet plus stampvet, the repo's own STAMP-aware analyzer engine
# (cmd/stamplint): determinism (wall clock, global rand, raw host
# concurrency), map-iteration order, uncharged backdoors, S-round
# misuse, checkpoint-unsafe region element types and charge-flow
# accounting.
lint: vet
	$(GO) run ./cmd/stamplint ./...

# Everything that runs host goroutines under the Go race detector: every
# package that runs kernels, which guards the coroutine switches between
# Run's goroutine and the process bodies and the teardown that unwinds
# them on Run's goroutine; Systems running side by side in one process
# (each experiment's cell fan-out, the parallel experiment harness, the
# *UnderShards suites); the observer sinks read while a run streams;
# stampserve; and the lint engine's parallel type-checks.
race:
	$(GO) test -race ./internal/sim/... ./internal/core/... ./internal/experiments/... ./internal/obs/... ./internal/msgpass/... ./internal/fault/... ./internal/racedet/... ./internal/ckpt/... ./internal/serve/... ./internal/lint/... ./internal/stm/... ./internal/apps/... ./internal/adapt/... ./stamp/...

# Black-box e2e: boot stampserve on an ephemeral port, submit scenarios
# over HTTP and assert on the event stream, /metrics and the scenario
# cache. Uses bats when installed, plain bash otherwise; needs curl+jq.
e2e:
	bash scripts/e2e/run.sh

# Every experiment golden at GOMAXPROCS 4. An experiment fans its
# independent Systems out over GOMAXPROCS goroutines, so this pins a
# fan-out wider than a 2-CPU host's; it must reproduce every golden
# byte for byte.
golden-cpus:
	$(GO) test -cpu 4 -run 'TestGoldenOutputs$$' ./internal/experiments

# Kill/restore equivalence fuzz: crash a checkpointed run at many event
# budgets, restore, and require the final virtual time, energy and
# iterates to match a clean run bit-for-bit (1, 2 and 4 host workers,
# fast and slow kernel paths). On failure the test drops the offending
# checkpoint blobs plus a diff into $CKPT_FAIL_DIR if it is set.
ckpt-fuzz:
	$(GO) test -run 'TestKillRestoreEquivalence|TestDoubleCrashRestore' -count=1 ./internal/ckpt

# Execution-equivalence flake hunt: FLAKE_HUNT_N fresh randomized seeds
# (wall-clock master seed, every run new territory) through the kill and
# fast-path equivalence fuzzes (fast path against slow path). Every seed
# is logged; reproduce a failure exactly with
# `make flake-hunt FLAKE_HUNT_SEED=<master seed from the log>`.
FLAKE_HUNT_N ?= 500
flake-hunt:
	FLAKE_HUNT_N=$(FLAKE_HUNT_N) FLAKE_HUNT_SEED=$(FLAKE_HUNT_SEED) $(GO) test -run 'TestFlakeHunt' -count=1 -v ./internal/sim/

# Run every program under examples/ and fail on a non-zero exit. Each
# exits non-zero when its run fails; apsp, banking and pipeline also
# check their answers, and pipeline is the only one that blocks in a
# transactional Retry.
examples:
	@for d in examples/*/; do echo "$(GO) run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# The PR gate: everything must build, lint (go vet + stamplint)
# and be gofmt-clean, the simulator, core, experiment harness, observability,
# race-detector, checkpoint, serve and lint packages must pass under the
# Go race detector, every experiment golden must hold at four Ps,
# the checkpoint kill/restore fuzz must hold bit-for-bit, every benchmark
# must at least run and every example must run cleanly.
check: build vet lint fmt race golden-cpus ckpt-fuzz bench-smoke examples
	$(GO) test ./...
