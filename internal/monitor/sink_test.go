package monitor

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestEpilogSinkStreamsIntoSegStore pins the streaming hand-off: an
// epilog's central-store output, staged into a SegStore the way simcloudd's
// /v1/telemetry stages it, is joined when the scheduler-side record is
// appended, with the same digest the central store holds.
func TestEpilogSinkStreamsIntoSegStore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetainSeries = true
	p := newTestPipeline(t, cfg)
	st := trace.NewSegStore(trace.SegConfig{DurationDays: 1})

	prof := testProfile(t, 600, 0.5, 80)
	m := p.Prolog(31, 0, gpu.V100(), gpu.DefaultPowerModel(), []Source{prof, prof}, true)
	if err := p.Epilog(m); err != nil {
		t.Fatal(err)
	}
	st.StageTelemetry(31, p.Summaries(31), p.Series(31))
	if n := st.StagedJobs(); n != 1 {
		t.Fatalf("staged = %d, want 1", n)
	}

	// The scheduler-side record arrives bare; the append joins it.
	st.AppendBatch([]trace.JobRecord{{
		JobID: 31, User: 1, NumGPUs: 2, Cores: 8, MemGB: 16,
		SubmitSec: 0, WaitSec: 5, RunSec: 600, LimitSec: 3600,
	}})
	if n := st.StagedJobs(); n != 0 {
		t.Fatalf("staged = %d after join, want 0", n)
	}
	v := st.Snapshot()
	if len(v.Cols.GPU) != 1 {
		t.Fatalf("GPU population = %d, want 1", len(v.Cols.GPU))
	}
	j := v.Cols.GPU[0]
	if len(j.PerGPU) != 2 {
		t.Fatalf("PerGPU = %d digests, want 2", len(j.PerGPU))
	}
	central := p.Summaries(31)
	for g := range central {
		if j.PerGPU[g] != central[g] {
			t.Errorf("GPU %d digest differs from central store", g)
		}
	}
	if j.GPU == (metrics.MetricSummaries{}) {
		t.Error("averaged GPU summary not recomputed at join")
	}
	if v.Cols.Series(31) == nil {
		t.Error("retained series not attached at join")
	}
}
