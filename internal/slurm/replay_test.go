package slurm

import (
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replayBudgetBytes bounds what replaying the two-record trace below may
// allocate: the admitted job's one profile plus the specs, a few KiB.
// Synthesizing the rejected job's 20,000 per-GPU profiles costs tens of MB.
const replayBudgetBytes = 256 << 10

// TestReplayRejectsHostileGPUCountCheaply pins the replay order: the
// capacity gate runs on the scheduler-side specs before any profile is
// synthesized, so a decodable record asking for 20,000 GPUs is counted as
// rejected without costing memory in proportion to its GPU count.
func TestReplayRejectsHostileGPUCountCheaply(t *testing.T) {
	var digest metrics.MetricSummaries
	digest[metrics.SMUtil] = metrics.SummaryRecord{Min: 0, Mean: 40, Max: 100}
	digest[metrics.MemUtil] = metrics.SummaryRecord{Min: 0, Mean: 20, Max: 60}
	digest[metrics.MemSize] = metrics.SummaryRecord{Min: 10, Mean: 30, Max: 50}
	digest[metrics.Power] = metrics.SummaryRecord{Min: 40, Mean: 120, Max: 250}
	ok := trace.JobRecord{
		JobID: 1, Interface: trace.Batch, Exit: trace.ExitSuccess,
		RunSec: 3600, LimitSec: 7200, NumGPUs: 1, CoresPerGPU: 4, MemGB: 16,
		PerGPU: []metrics.MetricSummaries{digest}, GPU: digest,
	}
	hostile := ok
	hostile.JobID, hostile.NumGPUs, hostile.PerGPU = 2, 20000, nil
	ds := trace.NewDataset(1)
	ds.Add(ok)
	ds.Add(hostile)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	specs, rejected := Feasible(DefaultConfig(), workload.ReplaySpecs(ds))
	workload.ReplayProfiles(ds, specs, 1)
	runtime.ReadMemStats(&after)

	if len(rejected) != 1 || rejected[0].ID != hostile.JobID {
		t.Fatalf("rejected %d jobs, want only job %d", len(rejected), hostile.JobID)
	}
	if len(specs) != 1 || len(specs[0].Profiles) != 1 {
		t.Fatalf("admitted %d specs, want job %d with one profile", len(specs), ok.JobID)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > replayBudgetBytes {
		t.Fatalf("replay allocated %d bytes, budget %d", grew, replayBudgetBytes)
	}
}
