package trace_test

// Allocation-count guards, wired into `make alloc-guard`. BuildColumns runs
// once per simulation replication, and its arrays are presized from a
// counting pass so appending a job does not reallocate them; losing that
// presizing (or adding per-job allocations) shows here as hundreds of extra
// allocations. ReadJSON runs once per ingest batch and per replayed WAL
// batch, and shares one arena among a batch's per-GPU digests; a per-job or
// per-value allocation shows as a thousand more.

import (
	"bytes"
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
	const budget = 185
	if allocs > budget {
		t.Fatalf("BuildColumns allocates %.0f objects over %d jobs, budget %d", allocs, len(ds.Jobs), budget)
	}
	t.Logf("BuildColumns: %.0f allocs over %d jobs", allocs, len(ds.Jobs))
}

// TestReadJSONAllocBudget pins ReadJSON's allocation count on one 1000-job
// body of the seeded fixture, the ingest benchmark's batch size, at the
// value measured on go1.24/amd64 (the encoding/json reader it replaced made
// 849). Re-pin it (and say why) when the decoder legitimately changes.
func TestReadJSONAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	g, err := workload.NewGenerator(workload.ScaledConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	ds := g.BuildDataset(g.GenerateSpecs())
	batch := &trace.Dataset{Jobs: ds.Jobs[:1000], DurationDays: ds.DurationDays}
	var body bytes.Buffer
	if err := batch.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := trace.ReadJSON(bytes.NewReader(body.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 23
	if allocs > budget {
		t.Fatalf("ReadJSON allocates %.0f objects over a %d-byte, 1000-job body, budget %d", allocs, body.Len(), budget)
	}
	t.Logf("ReadJSON: %.0f allocs over a %d-byte, 1000-job body", allocs, body.Len())
}
