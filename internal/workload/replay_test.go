package workload

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// replayAll replays every record of ds, with no capacity gate.
func replayAll(ds *trace.Dataset, seed uint64) []JobSpec {
	specs := ReplaySpecs(ds)
	ReplayProfiles(ds, specs, seed)
	return specs
}

func TestReplayRoundTripSchedulerFields(t *testing.T) {
	_, specs, ds := calibDataset(t)
	replayed := replayAll(ds, 99)
	if len(replayed) != len(specs) {
		t.Fatalf("replayed %d of %d jobs", len(replayed), len(specs))
	}
	byID := map[int64]*JobSpec{}
	for i := range specs {
		byID[specs[i].ID] = &specs[i]
	}
	for i := range replayed {
		r := &replayed[i]
		orig := byID[r.ID]
		if orig == nil {
			t.Fatalf("replayed unknown job %d", r.ID)
		}
		if r.SubmitSec != orig.SubmitSec || r.RunSec != orig.RunSec ||
			r.NumGPUs != orig.NumGPUs || r.User != orig.User ||
			r.Interface != orig.Interface || r.Exit != orig.Exit {
			t.Fatalf("scheduler fields diverged for job %d", r.ID)
		}
		if r.IsGPU() && len(r.Profiles) != r.NumGPUs {
			t.Fatalf("job %d: %d profiles for %d GPUs", r.ID, len(r.Profiles), r.NumGPUs)
		}
		if r.Category != orig.Category {
			t.Fatalf("job %d category %v, want %v", r.ID, r.Category, orig.Category)
		}
	}
}

func TestReplayPreservesUtilizationMeans(t *testing.T) {
	_, _, ds := calibDataset(t)
	replayed := replayAll(ds, 99)
	spec := gpu.V100()
	pm := gpu.DefaultPowerModel()
	byID := map[int64]*trace.JobRecord{}
	for i := range ds.Jobs {
		byID[ds.Jobs[i].JobID] = &ds.Jobs[i]
	}
	var absErr, n float64
	for i := range replayed {
		r := &replayed[i]
		if !r.IsGPU() || r.RunSec < trace.MinGPUJobRunSec {
			continue
		}
		orig := byID[r.ID]
		var got metrics.MetricSummaries
		per := make([]metrics.MetricSummaries, len(r.Profiles))
		for g, p := range r.Profiles {
			per[g] = p.Summaries(spec, pm)
		}
		got = metrics.Averaged(per)
		absErr += math.Abs(got[metrics.SMUtil].Mean - orig.GPU[metrics.SMUtil].Mean)
		n++
	}
	if n == 0 {
		t.Fatal("nothing replayed")
	}
	if mae := absErr / n; mae > 2 {
		t.Fatalf("replayed SM mean MAE = %v pct-points", mae)
	}
}

func TestReplayPreservesBottlenecks(t *testing.T) {
	// A saturating digest must reconstruct with a saturating burst.
	var d metrics.MetricSummaries
	d[metrics.SMUtil] = metrics.SummaryRecord{Min: 0, Mean: 30, Max: 100}
	d[metrics.MemUtil] = metrics.SummaryRecord{Min: 0, Mean: 5, Max: 20}
	d[metrics.MemSize] = metrics.SummaryRecord{Min: 10, Mean: 10, Max: 10}
	p := ProfileFromSummary(d, 3600, dist.New(1))
	s := p.Summaries(gpu.V100(), gpu.DefaultPowerModel())
	if s[metrics.SMUtil].Max < 99 {
		t.Fatalf("reconstructed max SM = %v, want saturation", s[metrics.SMUtil].Max)
	}
}

func TestReplayIdleDigest(t *testing.T) {
	var d metrics.MetricSummaries
	d[metrics.MemSize] = metrics.SummaryRecord{Min: 2, Mean: 2, Max: 2}
	p := ProfileFromSummary(d, 600, dist.New(1))
	if p.ActiveFraction() != 0 {
		t.Fatalf("idle digest produced active profile")
	}
	s := p.Summaries(gpu.V100(), gpu.DefaultPowerModel())
	if s[metrics.MemSize].Mean != 2 {
		t.Fatalf("memsize lost: %v", s[metrics.MemSize].Mean)
	}
}

func TestReplayFromCSVRoundTrip(t *testing.T) {
	// The CSV path drops per-GPU digests; replay must still produce
	// schedulable specs with per-GPU profiles.
	cfg := ScaledConfig(0.005)
	cfg.Seed = 3
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.BuildDataset(g.GenerateSpecs())
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadCSV(&buf, cfg.DurationDays)
	if err != nil {
		t.Fatal(err)
	}
	replayed := replayAll(back, 1)
	if len(replayed) != len(ds.Jobs) {
		t.Fatalf("replayed %d of %d", len(replayed), len(ds.Jobs))
	}
	for i := range replayed {
		r := &replayed[i]
		if r.IsGPU() && len(r.Profiles) != r.NumGPUs {
			t.Fatalf("job %d profiles missing after CSV replay", r.ID)
		}
		if i > 0 && r.SubmitSec < replayed[i-1].SubmitSec {
			t.Fatal("replayed specs not sorted")
		}
	}
}
