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

# Short fuzz session over every trace codec target (FuzzReadJSONMatchesSpec
# holds the hand-written JSON reader to its encoding/json spec), the whole replay
# pipeline (decode → replay → simulate → characterize → render), plus the
# calendar event queue cross-checked against the heap spec, the P²
# quantile estimator's invariants under arbitrary small/tied samples,
# and the durable store's WAL record and format-2 snapshot readers.
# FuzzReadSnapshot's minimization is capped at 5 s per input: minimizing a
# kilobyte-sized snapshot tries O(n²) byte-range cuts and would otherwise
# spend the whole 30 s on the first interesting input.
fuzz:
	$(GO) test . -fuzz FuzzPipeline -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzReadCSV -fuzztime 30s
	$(GO) test ./internal/trace -fuzz 'FuzzReadJSON$$' -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzReadJSONMatchesSpec -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzDatasetRoundTrip -fuzztime 30s
	$(GO) test ./internal/slurm -fuzz FuzzCalQueue -fuzztime 30s
	$(GO) test ./internal/predict -fuzz FuzzP2Quantile -fuzztime 30s
	$(GO) test ./internal/durable -fuzz FuzzWALRecord -fuzztime 30s
	$(GO) test ./internal/durable -fuzz FuzzReadSnapshot -fuzztime 30s -fuzzminimizetime 5s

# The repository's benchmark (BENCHMARK.json, _perfbench/README.md): every
# workload once at seed 1, 10 s of work each, one JSON result line per
# workload with its end-to-end metrics and "correct". Add `--trace 1` to a
# run for the per-layer breakdown; compare against another checkout with
# `bash _perfbench/run.sh ab --parent <dir> --pairs 10`. The earlier
# `go test -bench` records (BENCH_PR*.json, bench/baseline_*.json) live in
# git history at the commits EXPERIMENTS.md names.
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
# budget of Simulate, BuildColumns' pinned allocation count (it runs once
# per simulation replication), ReadJSON's per 1000-job ingest body (it
# runs once per ingest batch and per replayed WAL batch), the bytes one
# serial /v1/figures query allocates after seals on a 90k-job store (a
# query that merged the whole sealed prefix again would allocate a sorted
# copy of every column), and the monitor sampler's allocations per job and
# per sample (none per sample: a chunk buffer that escaped per job would
# show). Skipped automatically under -race.
alloc-guard:
	$(GO) test ./internal/slurm -count=1 		-run 'TestCalQueueSteadyStateAllocFree|TestHeapSpecBoxesPerEvent|TestSimulatePerJobAllocBudget'
	$(GO) test ./internal/trace -count=1 -run 'TestBuildColumnsAllocBudget|TestReadJSONAllocBudget'
	$(GO) test ./internal/core -count=1 -run 'TestFoldFiguresAllocsIndependentOfJobs'
	$(GO) test . -count=1 -run 'TestFiguresAfterSealsAllocBudget'
	$(GO) test ./internal/monitor -count=1 -run 'TestMonitorRunAllocBudget'

# Figure/experiment benchmarks: one `go test -bench` per paper table and
# figure metric, plus the scheduler, streaming and durability benchmarks
# in bench_*_test.go — among them BenchmarkFiguresAfterAppend, the cost
# (ms and allocs) of one live /v1/figures query on a 50k-job store with no
# seal pending, and BenchmarkFiguresAfterSeals, one serial query after 15
# 1000-job appends to a 20k-, 50k- and 90k-job store (ms/query, and the
# appends' ms per 1000 jobs); TestFiguresAfterSealsAllocBudget in
# `make alloc-guard` pins the bytes that query allocates at 90k jobs.
bench-figures:
	$(GO) test -bench . -benchmem -run '^$$' .

# Regenerate the pinned characterization figures after an intended change;
# review the golden diff like any other code change.
golden:
	$(GO) test ./internal/report -run Golden -update

clean:
	$(GO) clean ./...
