package trace_test

// Export/restore tests for the snapshot hooks behind internal/durable. The
// bar mirrors the store's own property tests: a restored store must be
// BIT-identical to the original — every figure column, every index, and the
// summary digest — whatever seal schedule either store followed.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// summaryBits renders a SegSummary's exact state, unexported accumulator
// fields included, for comparison. %v prints floats in shortest-round-trip
// form, which uniquely identifies the bit pattern (including the sign of
// zero), so a single-ulp drift shows up.
func summaryBits(s trace.SegSummary) string {
	return fmt.Sprintf("%v", s)
}

// TestSegSnapshotRoundTrip drives randomized append/seal schedules, exports
// at the end, restores, and requires the restored store to match
// bit-for-bit: snapshot columns and the summary digest. The restore seals
// on its own threshold, not where the original's manual seals fell.
// MaxSegments is ignored; it stays in the subtest names.
func TestSegSnapshotRoundTrip(t *testing.T) {
	ds := segJobs(t, 0.05, 23)
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 4; trial++ {
		cfg := trace.SegConfig{
			DurationDays: ds.DurationDays,
			SegmentJobs:  []int{1, 37, 500, 1 << 20}[trial],
			MaxSegments:  []int{0, 4, 0, 2}[trial],
		}
		t.Run(fmt.Sprintf("segment=%d/max=%d", cfg.SegmentJobs, cfg.MaxSegments), func(t *testing.T) {
			st := trace.NewSegStore(cfg)
			for i := range ds.Jobs {
				st.Append(ds.Jobs[i])
				if rng.Intn(997) == 0 {
					st.SealTail()
				}
				if ts := ds.Series[ds.Jobs[i].JobID]; ts != nil {
					st.AttachSeries(ts)
				}
			}
			// Park telemetry that never joins, so restore must carry it.
			st.StageTelemetry(1<<40+7, []metrics.MetricSummaries{{}}, nil)

			state := st.ExportState()
			got := trace.RestoreSegStore(cfg, state)
			if got.Len() != st.Len() {
				t.Fatalf("%d jobs, want %d", got.Len(), st.Len())
			}
			if got.StagedJobs() != st.StagedJobs() {
				t.Fatalf("staged: %d, want %d", got.StagedJobs(), st.StagedJobs())
			}
			if a, b := summaryBits(got.Summary()), summaryBits(st.Summary()); a != b {
				t.Fatalf("summary digests differ:\n got %s\nwant %s", a, b)
			}
			compareColumns(t, st.Snapshot().Cols, got.Snapshot().Cols)

			// The restored store must keep evolving identically: append the
			// same extra jobs to both and re-compare.
			extra := segJobs(t, 0.01, 99)
			for i := range extra.Jobs {
				extra.Jobs[i].JobID += 1 << 41
				st.Append(extra.Jobs[i])
				got.Append(extra.Jobs[i])
			}
			if a, b := summaryBits(got.Summary()), summaryBits(st.Summary()); a != b {
				t.Fatalf("summary digests diverge after post-restore appends")
			}
			compareColumns(t, st.Snapshot().Cols, got.Snapshot().Cols)
		})
	}
}

// TestSegSnapshotJoinAfterRestore pins that staged telemetry survives a
// restore and still joins the scheduler-side record that arrives later.
func TestSegSnapshotJoinAfterRestore(t *testing.T) {
	st := trace.NewSegStore(trace.SegConfig{DurationDays: 1})
	per := []metrics.MetricSummaries{{metrics.SMUtil: {Min: 1, Mean: 2, Max: 3}}}
	st.StageTelemetry(42, per, &trace.TimeSeries{JobID: 42, IntervalSec: 1})

	got := trace.RestoreSegStore(trace.SegConfig{DurationDays: 1}, st.ExportState())
	got.Append(trace.JobRecord{JobID: 42, User: 1, NumGPUs: 1, RunSec: 600, LimitSec: 900})
	if got.StagedJobs() != 0 {
		t.Fatalf("staged = %d after join, want 0", got.StagedJobs())
	}
	v := got.Snapshot()
	if len(v.Cols.GPU) != 1 || len(v.Cols.GPU[0].PerGPU) != 1 {
		t.Fatal("restored staged telemetry did not join")
	}
	if v.Cols.GPU[0].GPU[metrics.SMUtil].Mean != 2 {
		t.Fatal("averaged GPU summary not recomputed at post-restore join")
	}
	if v.Cols.Series(42) == nil {
		t.Fatal("staged series not attached at post-restore join")
	}
}

// TestSegSnapshotTotalGPUHoursBits spot-checks the most drift-prone scalar:
// the append-order GPU-hours fold must come back bit-identical.
func TestSegSnapshotTotalGPUHoursBits(t *testing.T) {
	ds := segJobs(t, 0.03, 11)
	st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 100})
	for i := range ds.Jobs {
		st.Append(ds.Jobs[i])
	}
	got := trace.RestoreSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 100}, st.ExportState())
	a := st.Snapshot().Cols.TotalGPUHours
	b := got.Snapshot().Cols.TotalGPUHours
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("TotalGPUHours bits differ: %x vs %x", math.Float64bits(a), math.Float64bits(b))
	}
}
