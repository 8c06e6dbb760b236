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
// a 50k-job store, rendered, with no seal pending; BenchmarkFiguresAfterSeals
// times it after the seals that land between two ingest-query queries, and
// TestFiguresAfterSealsAllocBudget pins the bytes that query allocates.
package repro

import (
	"fmt"
	"io"
	"runtime"
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

// A query after seals: a store of base jobs, built by 1000-job appends and
// queried once, as on a server that has been answering queries all along,
// then sealsAppends more appends of sealsBatch jobs — about three and a
// half seals at DefaultSegmentJobs, what lands between two ingest-query
// queries at 4 queries/s.
const sealsAppends, sealsBatch = 15, 1000

// sealsBases are the store sizes BenchmarkFiguresAfterSeals sweeps.
var sealsBases = []int{20_000, 50_000, 90_000}

// sealsDataset is the job sequence the after-seals stores are cut from.
func sealsDataset(tb testing.TB) *trace.Dataset {
	return charDataset(tb, sealsBases[len(sealsBases)-1]+sealsAppends*sealsBatch)
}

// figuresQuery answers one /v1/figures query over a fresh snapshot.
func figuresQuery(st *trace.SegStore, workers int) error {
	return report.RenderReport(io.Discard, core.CharacterizeSeg(st.Snapshot(), workers))
}

// sealsStore builds the queried store of base jobs.
func sealsStore(tb testing.TB, ds *trace.Dataset, base int) *trace.SegStore {
	tb.Helper()
	st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: trace.DefaultSegmentJobs})
	for lo := 0; lo < base; lo += sealsBatch {
		st.AppendBatch(ds.Jobs[lo : lo+sealsBatch])
	}
	if err := figuresQuery(st, 1); err != nil {
		tb.Fatal(err)
	}
	return st
}

// appendSeals makes the appends that precede the measured query.
func appendSeals(st *trace.SegStore, ds *trace.Dataset, base int) {
	for k := 0; k < sealsAppends; k++ {
		lo := base + k*sealsBatch
		st.AppendBatch(ds.Jobs[lo : lo+sealsBatch])
	}
}

// BenchmarkFiguresAfterSeals is one serial /v1/figures query after
// sealsAppends appends to a 20k-, 50k- or 90k-job store, the case
// BenchmarkFiguresAfterAppend leaves out: the seals those appends make
// leave runs to merge. It reports the query (ms/query) and, separately,
// the appends with the settle work they do (append-ms/1k-jobs); set-up is
// untimed.
func BenchmarkFiguresAfterSeals(b *testing.B) {
	ds := sealsDataset(b)
	for _, base := range sealsBases {
		b.Run(fmt.Sprintf("jobs=%dk", base/1000), func(b *testing.B) {
			b.StopTimer()
			var appendSec float64
			for i := 0; i < b.N; i++ {
				st := sealsStore(b, ds, base)
				before := b.Elapsed()
				b.StartTimer()
				appendSeals(st, ds, base)
				b.StopTimer()
				appendSec += (b.Elapsed() - before).Seconds()
				b.StartTimer()
				err := figuresQuery(st, 1)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric((b.Elapsed().Seconds()-appendSec)*1000/float64(b.N), "ms/query")
			b.ReportMetric(appendSec*1000/float64(b.N*sealsAppends), "append-ms/1k-jobs")
		})
	}
}

// TestFiguresAfterSealsAllocBudget pins the bytes BenchmarkFiguresAfterSeals'
// query allocates at 90k jobs with one worker, measured on go1.24/amd64: a
// query that merged the whole sealed prefix again would allocate a sorted
// copy of every column. Re-pin it (and say why) when the figures or the
// store's layout legitimately change.
func TestFiguresAfterSealsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	ds := sealsDataset(t)
	base := sealsBases[len(sealsBases)-1]
	st := sealsStore(t, ds, base)
	appendSeals(st, ds, base)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := figuresQuery(st, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 4 << 20
	got := after.TotalAlloc - before.TotalAlloc
	if got > budget {
		t.Fatalf("a query after %d appends to a %d-job store allocates %d bytes, budget %d", sealsAppends, base, got, budget)
	}
	t.Logf("query after %d appends to a %d-job store: %d bytes (%.1f MB)", sealsAppends, base, got, float64(got)/(1<<20))
}
