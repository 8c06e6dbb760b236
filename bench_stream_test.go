// Streaming-ingest benchmarks (PR 8): BenchmarkStreamingIngest times the
// interleaved append+query workload — batches of jobs arrive, and after
// every batch a live wait-statistics query is answered — on the segmented
// store, where sealed segments keep their cached sorted runs and a query
// pays one tail sort plus a two-way merge. BenchmarkStreamingIngestRebuild
// is the same workload on the pre-PR8 path: each batch appends into a
// Dataset and invalidates the columnar memo, so every query rebuilds and
// re-sorts from scratch. BENCH_PR8.json records the segmented rows joined
// against the committed rebuild baseline (bench/baseline_pr8.json); the
// acceptance bar was ≥10x at jobs=100k.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// streamSizes are the population sizes the streaming benchmarks sweep.
var streamSizes = []struct {
	name string
	jobs int
}{
	{"jobs=10k", 10_000},
	{"jobs=100k", 100_000},
}

// streamBatch is the ingest batch size: a query lands every 1k jobs, so the
// 100k point answers 100 live queries while ingesting.
const streamBatch = 1000

// streamQueryFingerprint folds a wait query's headline numbers so the
// compiler cannot elide the work and the two paths can assert they computed
// identical answers.
func streamQueryFingerprint(w core.WaitResult) float64 {
	return w.GPUWaitPct.P50 + w.CPUWaitPct.P50 + w.MedianWaitBySize[0] + w.GPUWaitUnder1MinFrac
}

// BenchmarkStreamingIngest is the segmented hot path: append a batch, then
// answer the live query from a snapshot. Sealed segments are sorted at most
// once; the per-query cost is the tail sort plus merges.
func BenchmarkStreamingIngest(b *testing.B) {
	for _, sz := range streamSizes {
		b.Run(sz.name, func(b *testing.B) {
			ds := charDataset(b, sz.jobs)
			b.ResetTimer()
			var fp float64
			for i := 0; i < b.N; i++ {
				st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays})
				fp = 0
				for lo := 0; lo < len(ds.Jobs); lo += streamBatch {
					hi := lo + streamBatch
					if hi > len(ds.Jobs) {
						hi = len(ds.Jobs)
					}
					st.AppendBatch(ds.Jobs[lo:hi])
					fp += streamQueryFingerprint(core.Waits(st.Snapshot().Cols))
				}
			}
			b.ReportMetric(fp, "query-fingerprint")
			b.ReportMetric(float64(len(ds.Jobs))/(b.Elapsed().Seconds()/float64(b.N)), "jobs/s")
		})
	}
}

// BenchmarkStreamingIngestSegSweep sweeps the tail seal threshold at the
// 100k point — the segment-size sensitivity study in EXPERIMENTS.md. Small
// segments seal (and cascade-merge) often; huge segments degenerate toward
// sorting the whole store on every query. Run it by name.
func BenchmarkStreamingIngestSegSweep(b *testing.B) {
	ds := charDataset(b, 100_000)
	for _, segJobs := range []int{512, 2048, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("seg=%d", segJobs), func(b *testing.B) {
			var fp float64
			for i := 0; i < b.N; i++ {
				st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: segJobs})
				fp = 0
				for lo := 0; lo < len(ds.Jobs); lo += streamBatch {
					hi := lo + streamBatch
					if hi > len(ds.Jobs) {
						hi = len(ds.Jobs)
					}
					st.AppendBatch(ds.Jobs[lo:hi])
					fp += streamQueryFingerprint(core.Waits(st.Snapshot().Cols))
				}
			}
			b.ReportMetric(fp, "query-fingerprint")
			b.ReportMetric(float64(len(ds.Jobs))/(b.Elapsed().Seconds()/float64(b.N)), "jobs/s")
		})
	}
}

// BenchmarkStreamingIngestRebuild is the pre-PR8 baseline for the same
// workload: Dataset.Add invalidates the memo, so every query pays a full
// columnar rebuild and re-sort. Committed as bench/baseline_pr8.json; kept
// runnable so the comparison can be reproduced on any machine.
func BenchmarkStreamingIngestRebuild(b *testing.B) {
	for _, sz := range streamSizes {
		b.Run(sz.name, func(b *testing.B) {
			ds := charDataset(b, sz.jobs)
			b.ResetTimer()
			var fp float64
			for i := 0; i < b.N; i++ {
				acc := trace.NewDataset(ds.DurationDays)
				fp = 0
				for lo := 0; lo < len(ds.Jobs); lo += streamBatch {
					hi := lo + streamBatch
					if hi > len(ds.Jobs) {
						hi = len(ds.Jobs)
					}
					for k := lo; k < hi; k++ {
						acc.Add(ds.Jobs[k])
					}
					fp += streamQueryFingerprint(core.Waits(acc.Columns()))
				}
			}
			b.ReportMetric(fp, "query-fingerprint")
			b.ReportMetric(float64(len(ds.Jobs))/(b.Elapsed().Seconds()/float64(b.N)), "jobs/s")
		})
	}
}
