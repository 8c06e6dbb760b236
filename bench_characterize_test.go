// Characterization-scaling benchmarks (PR 3): BenchmarkCharacterize times
// the full figure suite (core.Characterize, Figs. 3-17) at 10k/100k-job
// scale. Commit 86520d6 recorded it (`git show 86520d6:BENCH_PR3.json`)
// next to the PR 2 scheduler trio with a speedup column against the
// pre-columnar baseline of the same commit (bench/baseline_pr3.json), so
// the shared-column index and the parallel figure fan-out carry a measured
// claim rather than an asserted one.
package repro

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// charSizes are the population sizes BenchmarkCharacterize sweeps. 500k is
// omitted: the analysis cost is linear in jobs and series, so the 100k point
// already covers the scaling claim without an extra multi-GB population.
var charSizes = []struct {
	name string
	jobs int
}{
	{"jobs=10k", 10_000},
	{"jobs=100k", 100_000},
}

var charDataCache sync.Map // jobs -> *trace.Dataset

// charDataset builds (once per size) the paper-shaped dataset for the
// characterization benchmarks: the analytic generator path, which attaches
// the monitored time-series subset exactly like a replication run does.
func charDataset(b *testing.B, jobs int) *trace.Dataset {
	b.Helper()
	if v, ok := charDataCache.Load(jobs); ok {
		return v.(*trace.Dataset)
	}
	factor := float64(jobs) / paperJobs
	gcfg := workload.ScaledConfig(factor)
	gcfg.TotalJobs = jobs
	gcfg.Seed = 7
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	ds := gen.BuildDataset(gen.GenerateSpecs())
	charDataCache.Store(jobs, ds)
	return ds
}

// BenchmarkCharacterize times core.Characterize — all ~18 figure analyses —
// on the paper-shaped dataset. Each iteration re-wraps the shared job and
// series storage in a fresh Dataset value so per-dataset caches built by one
// iteration cannot leak into the next: the benchmark always measures the
// full cost of analyzing a dataset seen for the first time. This is the
// benchmark the PR 3 acceptance criterion reads: ≥3x over the pre-columnar
// baseline at jobs=100k.
func BenchmarkCharacterize(b *testing.B) {
	for _, sz := range charSizes {
		b.Run(sz.name, func(b *testing.B) {
			ds := charDataset(b, sz.jobs)
			b.ResetTimer()
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				fresh := &trace.Dataset{
					Jobs:         ds.Jobs,
					Series:       ds.Series,
					DurationDays: ds.DurationDays,
				}
				if rep = core.Characterize(fresh.Columns(), 0); rep == nil {
					b.Fatal("nil report")
				}
			}
			b.ReportMetric(rep.Utilization.SM.P50, "sm-median-pct")
			b.ReportMetric(float64(rep.Phases.JobsAnalyzed), "series-jobs")
		})
	}
}
