package core

import "repro/internal/trace"

// Segmented (streaming) characterization. A trace.SegView snapshot is a
// Columns projected by the same code as trace.BuildColumns, so its
// dataset-order vectors are the exact sequences the batch path produces and
// every figure folds bit-identical results over v.Cols. Its sorted views
// merge the store's cached sealed-prefix run with a sort of the small tail:
// re-running a query after more appends costs that tail sort plus one
// two-way merge per column, never a re-sort of sealed data. The figure
// tasks fan across the worker pool as in Characterize, and each column
// materializes its merge once behind its sync.Once, so the sorts run in
// parallel and the answer is bit-identical at any worker count.

// CharacterizeSeg runs the complete suite over a segmented-store snapshot.
// The Report is bit-identical to Characterize over a Dataset holding the
// same job sequence, for any segment size, compaction history, or worker
// count.
func CharacterizeSeg(v *trace.SegView, workers int) *Report {
	return Characterize(v.Cols, workers)
}
