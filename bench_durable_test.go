// Durability benchmarks (PR 9): what does crash safety cost on the ingest
// path? BenchmarkDurableIngest feeds pre-encoded JSON batches through
// durable.Store.IngestBatch under three policies — wal=off (decode + apply
// only: the price of the durable plumbing with the log disabled-in-spirit,
// i.e. async, never-synced appends), wal=sync (fsync on every append: the
// crash-safe production default), and a mem baseline (decode + raw SegStore
// append, no WAL, no ledger). The acceptance bar is wal=off within 1.5x of
// mem; wal=sync reports absolute numbers — it is priced by the disk, not
// the code. Commit 05d1f7b recorded these (`git show 05d1f7b:BENCH_PR9.json`)
// with the re-run streaming rows joined against commit 99d72da's
// bench/baseline_pr8.json (regression guard).
package repro

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/trace"
)

// durableBatches pre-encodes ds into ingest-format JSON bodies of batch
// jobs each, outside the timed region.
func durableBatches(b *testing.B, ds *trace.Dataset, batch int) [][]byte {
	b.Helper()
	var bodies [][]byte
	for lo := 0; lo < len(ds.Jobs); lo += batch {
		hi := lo + batch
		if hi > len(ds.Jobs) {
			hi = len(ds.Jobs)
		}
		part := &trace.Dataset{Jobs: ds.Jobs[lo:hi], Series: map[int64]*trace.TimeSeries{}, DurationDays: ds.DurationDays}
		var buf bytes.Buffer
		if err := part.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies
}

func BenchmarkDurableIngest(b *testing.B) {
	for _, sz := range streamSizes {
		ds := charDataset(b, sz.jobs)
		bodies := durableBatches(b, ds, streamBatch)
		cfg := trace.SegConfig{DurationDays: ds.DurationDays}

		for _, mode := range []struct {
			name string
			sync bool
		}{{"wal=off", false}, {"wal=sync", true}} {
			b.Run(fmt.Sprintf("%s/%s", mode.name, sz.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					dir := b.TempDir()
					b.StartTimer()
					st, err := durable.Open(dir, cfg, durable.Options{Sync: mode.sync})
					if err != nil {
						b.Fatal(err)
					}
					for k, body := range bodies {
						if _, _, err := st.IngestBatch(fmt.Sprintf("b%d", k), body); err != nil {
							b.Fatal(err)
						}
					}
					// Flush-close without the final checkpoint: the shutdown
					// snapshot is drain cost, not ingest cost.
					if err := st.CloseNoSnapshot(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(ds.Jobs))/(b.Elapsed().Seconds()/float64(b.N)), "jobs/s")
			})
		}

		// mem: the same decode+apply work with no durability at all — the
		// denominator of the overhead ratio.
		b.Run(fmt.Sprintf("mem/%s", sz.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := trace.NewSegStore(cfg)
				for _, body := range bodies {
					part, err := trace.ReadJSON(bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					st.AppendDataset(part)
				}
			}
			b.ReportMetric(float64(len(ds.Jobs))/(b.Elapsed().Seconds()/float64(b.N)), "jobs/s")
		})
	}
}

// durableStore ingests ds into a fresh store in dir, in streamBatch-job
// batches, outside the timed region.
func durableStore(b *testing.B, dir string, ds *trace.Dataset, cfg trace.SegConfig) *durable.Store {
	b.Helper()
	st, err := durable.Open(dir, cfg, durable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for k, body := range durableBatches(b, ds, streamBatch) {
		if _, _, err := st.IngestBatch(fmt.Sprintf("b%d", k), body); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkDurableRecover times Open on a data dir left behind by the
// wal=sync run shape: how long a crashed server takes to come back. Sweeps
// snapshot cadence — recovery from a fresh snapshot vs. a pure WAL replay.
func BenchmarkDurableRecover(b *testing.B) {
	for _, sz := range streamSizes {
		ds := charDataset(b, sz.jobs)
		cfg := trace.SegConfig{DurationDays: ds.DurationDays}

		for _, cad := range []struct {
			name     string
			snapshot bool
		}{{"replay=wal", false}, {"replay=snapshot", true}} {
			b.Run(fmt.Sprintf("%s/%s", cad.name, sz.name), func(b *testing.B) {
				dir := b.TempDir()
				st := durableStore(b, dir, ds, cfg)
				if cad.snapshot {
					if err := st.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
				// Simulate a crash: close the log with no final checkpoint,
				// so replay=wal pays the full log and replay=snapshot loads
				// the checkpoint with an empty suffix.
				if err := st.CloseNoSnapshot(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st2, err := durable.Open(dir, cfg, durable.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if st2.Seg().Len() != len(ds.Jobs) {
						b.Fatalf("recovered %d jobs, want %d", st2.Seg().Len(), len(ds.Jobs))
					}
					if err := st2.CloseNoSnapshot(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*len(ds.Jobs)), "µs/job")
			})
		}
	}
}

// BenchmarkDurableCheckpoint times one checkpoint (Store.Snapshot) of a
// store holding every job of the dataset: capture under the commit lock,
// encode, fsync, rename and prune. Each iteration writes a full snapshot,
// as the first checkpoint after a restart does.
func BenchmarkDurableCheckpoint(b *testing.B) {
	for _, sz := range streamSizes {
		ds := charDataset(b, sz.jobs)
		cfg := trace.SegConfig{DurationDays: ds.DurationDays}
		b.Run(sz.name, func(b *testing.B) {
			dir := b.TempDir()
			st := durableStore(b, dir, ds, cfg)
			defer st.CloseNoSnapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*len(ds.Jobs)), "µs/job")
			ents, err := os.ReadDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), "snap-") {
					fi, err := e.Info()
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(fi.Size())/float64(len(ds.Jobs)), "B/job")
					break
				}
			}
		})
	}
}

// BenchmarkReadJSON decodes one 1000-job ingest body: the decode every
// IngestBatch runs before its commit lock, and WAL replay runs per batch.
func BenchmarkReadJSON(b *testing.B) {
	body := durableBatches(b, charDataset(b, 10_000), streamBatch)[0]
	b.SetBytes(int64(len(body)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadJSON(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	jobs := float64(b.N * streamBatch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/jobs, "ns/job")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/jobs, "B/job")
}
