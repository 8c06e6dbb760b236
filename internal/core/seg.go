package core

import (
	"runtime"

	"repro/internal/trace"
)

// Segmented (streaming) characterization. A trace.SegView snapshot
// stitches per-segment columns into a Columns whose dataset-order vectors
// are the exact sequences BuildColumns would produce, so every figure
// already folds bit-identical results over v.Cols. What CharacterizeSeg
// adds is WHERE the heavy lifting happens: the snapshot's per-segment
// sorted runs are the partial results, and segPrepare fans their
// materialization across the bounded worker pool before the figures fold
// them — merged in segment-index order inside the column, so the answer is
// bit-identical at any worker count (the per-segment sorts are independent;
// only the fold order is pinned). Re-running a query after more appends
// costs one tail sort plus the merge: the sealed partials are cached in the
// segments and never recomputed.

// segPrepare materializes the view's per-segment sorted runs across
// workers goroutines (0 means GOMAXPROCS). Idempotent: runs already
// materialized by an earlier query are reused, so the steady-state cost of
// a fresh snapshot is the tail only. With a single effective worker it does
// nothing: eager materialization only buys parallelism, and the lazy path
// sorts exactly the columns the figure touches — strictly less serial work.
func segPrepare(v *trace.SegView, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		return
	}
	if tasks := v.SortTasks(); len(tasks) > 0 {
		runTasks(workers, tasks)
	}
}

// CharacterizeSeg runs the complete suite over a segmented-store snapshot:
// per-segment sort partials fan across the pool first, then the figure
// tasks themselves. The Report is bit-identical to Characterize over a
// Dataset holding the same job sequence, for any segment size, compaction
// history, or worker count.
func CharacterizeSeg(v *trace.SegView, workers int) *Report {
	segPrepare(v, workers)
	return Characterize(v.Cols, workers)
}
