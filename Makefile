# Build and verification entry points. `make check` is the tier-1 gate
# (ROADMAP.md): static analysis (go vet + simlint), build, the benchmark
# module's vet and tests, the allocation guards, the full test suite under
# the race detector, then the chaos kill/recovery harness.

GO ?= go

.PHONY: check build vet lint test short race chaos fuzz bench perfbench bench-figures alloc-guard golden clean

check: lint build perfbench alloc-guard race chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis gate (PR 5): go vet plus the project's own analyzers
# (internal/lint driven by cmd/simlint) — wall-clock reads, RNG provenance,
# map-order output, float accumulation order, discarded codec/render errors,
# lock, WAL-ordering, handler and close discipline, and lite vet passes.
# Zero findings required.
# Suppress an intentional exception with `//lint:allow <analyzer> <reason>`.
# The opt-in struct-padding report (not part of the gate, since field order
# can be wire-visible) is: $(GO) run ./cmd/simlint -only fieldalign ./...
lint: vet
	$(GO) run ./cmd/simlint ./...

test:
	$(GO) test ./...

# Quick loop: skips the slow full-pipeline and replication tests.
short:
	$(GO) test -short ./...

# Full suite under the race detector. This subsumes the historical
# targeted passes (race-sched, race-analyze, race-fault, race-stream,
# race-durable — PRs 2/3/4/8/9): every test they filtered for is in the
# tree and `go test -race ./...` runs them all exactly once. To narrow a
# reproduction, run the package directly:
#   $(GO) test -race -run <Test> ./internal/<pkg>
# The explicit timeout is sized from the slowest package: cmd/simcloudd
# takes 373-415 s under -race on a 2-core host by itself (its chaos test
# restarts a race-built server many times) and 496 s while the other
# packages share the cores, against go test's default 10 m. 30 m is about
# four times its solo time.
race:
	$(GO) test -race -timeout 30m ./...

# Crash-recovery acceptance harness (PR 9): a real simcloudd subprocess is
# killed at 50+ randomized points — torn WAL writes at arbitrary byte
# offsets, deaths between commit and apply, deaths inside snapshot
# writes, raw SIGKILLs — while an idempotent client feeds batches through
# blind retries. The recovered server's /v1/summary and /v1/figures must be
# byte-identical to an uninterrupted server fed the same batches.
# Vary the schedule with SIMCLOUDD_CHAOS_SEED=<n>.
chaos:
	SIMCLOUDD_CHAOS_KILLS=50 $(GO) test -count=1 -run TestChaosKillRecovery -v -timeout 30m ./cmd/simcloudd

# Short fuzz session over every trace codec target, plus the calendar event
# queue cross-checked against the heap spec (PR 6) and the P² quantile
# estimator's invariants under arbitrary small/tied samples (PR 7).
fuzz:
	$(GO) test ./internal/trace -fuzz FuzzReadCSV -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzReadJSON -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzDatasetRoundTrip -fuzztime 30s
	$(GO) test ./internal/slurm -fuzz FuzzCalQueue -fuzztime 30s
	$(GO) test ./internal/predict -fuzz FuzzP2Quantile -fuzztime 30s
	$(GO) test ./internal/durable -fuzz FuzzWALRecord -fuzztime 30s

# The repository's benchmark (BENCHMARK.json, _perfbench/README.md): every
# workload once at seed 1, 10 s of work each, one JSON result line per
# workload with its end-to-end metrics and "correct". Add `--trace 1` to a
# run for the per-layer breakdown; compare against another checkout with
# `bash _perfbench/run.sh ab --parent <dir> --pairs 10`. The committed
# BENCH_PR*.json and bench/baseline_*.json files are frozen records of
# earlier `go test -bench` runs that EXPERIMENTS.md cites, no longer
# regenerated.
BENCH_WORKLOADS = sim-paper sim-contended ingest ingest-query

bench:
	for w in $(BENCH_WORKLOADS); do \
		bash _perfbench/run.sh --workload $$w --seed 1 --seconds 10 || exit 1; \
	done

# The benchmark module (_perfbench/) sits outside ./..., so the root build
# and tests never compile it; vet and test it here so an API change that
# breaks the benchmark fails `make check`.
perfbench:
	cd _perfbench && $(GO) vet . && $(GO) test .

# Allocation-count guards (PR 6, part of `make check`): the calendar queue's
# steady-state zero-allocation property, the end-to-end per-job allocation
# budget of Simulate, and BuildColumns' pinned allocation count (it runs once
# per simulation replication). Skipped automatically under -race.
alloc-guard:
	$(GO) test ./internal/slurm -count=1 		-run 'TestCalQueueSteadyStateAllocFree|TestHeapSpecBoxesPerEvent|TestSimulatePerJobAllocBudget'
	$(GO) test ./internal/trace -count=1 -run 'TestBuildColumnsAllocBudget'

# Figure/experiment benchmarks: one `go test -bench` per paper table and
# figure metric, plus the scheduler, streaming and durability benchmarks
# in bench_*_test.go.
bench-figures:
	$(GO) test -bench . -benchmem -run '^$$' .

# Regenerate the pinned characterization figures after an intended change;
# review the golden diff like any other code change.
golden:
	$(GO) test ./internal/report -run Golden -update

clean:
	$(GO) clean ./...
