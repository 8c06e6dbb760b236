package trace_test

// Allocation-count guard on the batch column projection, wired into
// `make alloc-guard`. BuildColumns runs once per simulation replication, and
// its arrays are presized from a counting pass so appending a job does not
// reallocate them; losing that presizing (or adding per-job allocations)
// shows here as hundreds of extra allocations.

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestBuildColumnsAllocBudget pins BuildColumns' allocation count on a fixed
// seeded fixture at the value measured on go1.24/amd64. Re-pin it (and say
// why) when the projection's layout legitimately changes.
func TestBuildColumnsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	g, err := workload.NewGenerator(workload.ScaledConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	ds := g.BuildDataset(g.GenerateSpecs())
	if len(ds.Jobs) != 3741 {
		t.Fatalf("fixture has %d jobs, want 3741", len(ds.Jobs))
	}
	allocs := testing.AllocsPerRun(10, func() { trace.BuildColumns(ds) })
	const budget = 227
	if allocs > budget {
		t.Fatalf("BuildColumns allocates %.0f objects over %d jobs, budget %d", allocs, len(ds.Jobs), budget)
	}
	t.Logf("BuildColumns: %.0f allocs over %d jobs", allocs, len(ds.Jobs))
}
