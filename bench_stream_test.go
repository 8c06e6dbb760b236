// Streaming-ingest benchmarks (PR 8): BenchmarkStreamingIngest times the
// interleaved append+query workload — batches of jobs arrive, and after
// every batch a live wait-statistics query is answered — on the segmented
// store, where sealed segments keep their cached sorted runs and a query
// pays one tail sort plus a two-way merge. BenchmarkStreamingIngestRebuild
// is the same workload on the pre-PR8 path: each batch appends into a
// Dataset and invalidates the columnar memo, so every query rebuilds and
// re-sorts from scratch. Commit 99d72da recorded the segmented rows
// (BENCH_PR8.json) joined against the rebuild baseline
// (bench/baseline_pr8.json); read them with `git show 99d72da:<file>`. The
// acceptance bar was ≥10x at jobs=100k. BenchmarkFiguresAfterAppend times
// the live /v1/figures query itself: every figure over a fresh snapshot of
// a 50k-job store, rendered.
package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
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
// columnar rebuild and re-sort. Recorded as bench/baseline_pr8.json at
// commit 99d72da; kept runnable so the comparison can be reproduced on any
// machine.
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

// BenchmarkFiguresAfterAppend is one live /v1/figures query as simcloudd
// answers it beside ingest: a 50k-job store with the server's segment
// configuration takes one 1000-job append, then Snapshot + CharacterizeSeg
// + RenderReport run over the fresh snapshot. Only that query is timed.
// Before every iteration the store is rebuilt and queried once, untimed, so
// its sealed runs are cached as on a server that has been answering
// queries all along: the timed query pays what one append leaves to do.
// The store holds the jobs without their monitored series, whose Fig. 6/7a
// walk costs the same however the job columns are kept. workers=1 is the
// serial cost, workers=2 the server's.
func BenchmarkFiguresAfterAppend(b *testing.B) {
	const baseJobs, appendJobs = 50_000, 1000
	ds := charDataset(b, baseJobs+appendJobs)
	base, batch := ds.Jobs[:baseJobs], ds.Jobs[baseJobs:baseJobs+appendJobs]
	cfg := trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: trace.DefaultSegmentJobs}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				st := trace.NewSegStore(cfg)
				st.AppendBatch(base)
				if err := report.RenderReport(io.Discard, core.CharacterizeSeg(st.Snapshot(), workers)); err != nil {
					b.Fatal(err)
				}
				st.AppendBatch(batch)
				b.StartTimer()
				err := report.RenderReport(io.Discard, core.CharacterizeSeg(st.Snapshot(), workers))
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N), "ms/query")
		})
	}
}
