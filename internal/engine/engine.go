// Package engine is the parallel multi-replication substrate: it fans N
// independently-seeded replications of a simulation pipeline across a pool
// of worker goroutines and folds their scalar metrics into mergeable
// across-replication summaries (streaming moments, quantiles, bootstrap
// confidence intervals).
//
// The paper's headline claims — the Fig. 3b queue-wait ordering, §V's
// size-independent multi-GPU waits, the §VI lifecycle mix — are statistical
// statements, so a single seeded run can neither attach confidence intervals
// to them nor guard them against regression. The engine makes replication
// cheap (near-linear scaling with workers, see BenchmarkReplications) while
// keeping it exact: replication i always draws from dist.Stream(rootSeed, i)
// and summaries are merged in replication-index order, so the merged output
// is bit-identical whether one worker ran everything or eight raced through
// the batch. Determinism under parallelism is proven by tests
// (TestRunDeterministicAcrossWorkerCounts), not asserted.
//
// One bad seed fails soft: each replication runs behind a panic barrier that
// converts a panic into a recorded per-replication error, so the rest of the
// batch completes and the caller can see exactly which seed died and why.
// Cancellation via context.Context stops handing out new replications and
// returns the merged summary of everything that finished.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/dist"
)

// Sample is one replication's named scalar metrics.
type Sample map[string]float64

// Replicator computes one replication. rep is the replication index in
// [0, Reps); seed is the replication's private RNG stream seed, a pure
// function of (root seed, rep) — implementations must derive all their
// randomness from it and must not share mutable state across calls, because
// the engine invokes them concurrently.
type Replicator func(ctx context.Context, rep int, seed uint64) (Sample, error)

// Config parameterizes a replication batch.
type Config struct {
	// RootSeed is split into per-replication streams via dist.StreamSeed.
	RootSeed uint64
	// Reps is the number of replications to run.
	Reps int
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Reps < 1 {
		return fmt.Errorf("engine: need at least one replication, got %d", c.Reps)
	}
	return nil
}

// RepResult is one replication's outcome.
type RepResult struct {
	Rep  int
	Seed uint64
	// Sample holds the metrics when the replication succeeded.
	Sample Sample
	// Err records a failure: the replicator's error, a recovered panic
	// (with stack), or the batch context's error for replications that were
	// never started before cancellation.
	Err error
	// Started distinguishes replications that ran (successfully or not)
	// from those skipped by cancellation.
	Started bool
}

// Batch is a completed (possibly partial) replication batch.
type Batch struct {
	RootSeed uint64
	// Results holds one entry per requested replication, indexed by rep.
	Results []RepResult
	// Merged summarizes the successful replications, folded in replication-
	// index order regardless of worker scheduling.
	Merged *Summary
	// Canceled reports that the context fired before every replication ran.
	Canceled bool
}

// Completed returns the number of successful replications.
func (b *Batch) Completed() int {
	n := 0
	for i := range b.Results {
		if b.Results[i].Started && b.Results[i].Err == nil {
			n++
		}
	}
	return n
}

// Failed returns the replications that started and errored (or panicked).
func (b *Batch) Failed() []RepResult {
	var out []RepResult
	for i := range b.Results {
		if b.Results[i].Started && b.Results[i].Err != nil {
			out = append(out, b.Results[i])
		}
	}
	return out
}

// FirstErr returns the lowest-index recorded failure, or nil.
func (b *Batch) FirstErr() error {
	for i := range b.Results {
		if b.Results[i].Started && b.Results[i].Err != nil {
			return fmt.Errorf("engine: replication %d (seed %#x): %w",
				b.Results[i].Rep, b.Results[i].Seed, b.Results[i].Err)
		}
	}
	return nil
}

// Run executes cfg.Reps replications of fn across the worker pool and merges
// their samples. It returns an error only for invalid configuration; per-
// replication failures are recorded in the batch (fail-soft), and
// cancellation returns the partial batch with Canceled set.
func Run(ctx context.Context, cfg Config, fn Replicator) (*Batch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	batch := dispatch(ctx, cfg, func(r *RepResult) {
		r.Err = guard(ctx, r.Rep, func() (err error) {
			r.Sample, err = fn(ctx, r.Rep, r.Seed)
			return err
		})
	})
	batch.merge()
	return batch, nil
}

// dispatch is the worker-pool loop Run and RunStreamTo share: it hands each
// replication to a worker, which marks it started and calls run on its
// result, and it stops handing out replications once ctx is done.
// Replications never started get the context's error. run records its
// outcome in r and must synchronize anything else it shares.
func dispatch(ctx context.Context, cfg Config, run func(r *RepResult)) *Batch {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Reps {
		workers = cfg.Reps
	}

	batch := &Batch{
		RootSeed: cfg.RootSeed,
		Results:  make([]RepResult, cfg.Reps),
	}
	for i := range batch.Results {
		batch.Results[i] = RepResult{Rep: i, Seed: dist.StreamSeed(cfg.RootSeed, uint64(i))}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for rep := range jobs {
				r := &batch.Results[rep]
				r.Started = true
				run(r)
			}
		}()
	}

feed:
	for rep := 0; rep < cfg.Reps; rep++ {
		select {
		case jobs <- rep:
		case <-ctx.Done():
			batch.Canceled = true
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// A replication may also observe cancellation after being dispatched.
	if !batch.Canceled && ctx.Err() != nil {
		batch.Canceled = true
	}
	for i := range batch.Results {
		if !batch.Results[i].Started {
			batch.Results[i].Err = ctx.Err()
		}
	}
	return batch
}

// merge folds the successful replications' samples into b.Merged in
// replication-index order: worker scheduling decided *when* each sample was
// produced, never the fold order, so the summary is a pure function of
// (root seed, completed set).
func (b *Batch) merge() {
	b.Merged = NewSummary()
	for i := range b.Results {
		r := &b.Results[i]
		if r.Started && r.Err == nil {
			b.Merged.AddSample(r.Rep, r.Sample)
		}
	}
}

// guard runs call behind the panic barrier: a panic becomes replication
// rep's error (with its stack), and a context already done skips the call.
func guard(ctx context.Context, rep int, call func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: replication %d panicked: %v\n%s", rep, p, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	return call()
}
