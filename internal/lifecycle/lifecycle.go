// Package lifecycle implements the paper's §VI contribution: classifying
// jobs by their position in the algorithm-development life-cycle from
// observable scheduler facts alone. Mature jobs complete with a zero exit
// code; exploratory jobs are killed by their user mid-flight (abandoned
// hyper-parameter settings); IDE jobs are interactive sessions that ride
// their wall-clock limit into a timeout; development jobs crash, or time out
// non-interactively while under debug. The decision table itself lives in
// trace (trace.CategoryOf), so the column projection can group jobs by
// category as they are appended.
package lifecycle

import "repro/internal/trace"

// Classify returns the life-cycle category of a job record. The mapping is
// total: every (exit status, interface) combination has a category.
func Classify(j *trace.JobRecord) trace.Category {
	return trace.CategoryOf(j.Exit, j.Interface)
}

// ClassifyParts classifies from the two observables directly, so callers that
// have no JobRecord in hand (the scheduler's online prediction layer works
// from JobSpecs) share the exact decision table.
func ClassifyParts(exit trace.ExitStatus, iface trace.Interface) trace.Category {
	return trace.CategoryOf(exit, iface)
}
