package trace_test

// Property tests for the segmented store. The central invariant is the
// ISSUE 8 acceptance bar: a SegStore snapshot must be BIT-identical to
// BuildColumns over the same job sequence — same dataset-order float
// vectors, same sorted views, same grouping indexes, same accumulated
// totals — for ANY seal/compaction schedule. The tests compare float
// payloads through math.Float64bits so an exact-zero-sign or ulp drift
// fails loudly rather than slipping under an epsilon.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// segJobs generates the shared job sequence (plus series) for the tests.
func segJobs(t testing.TB, scale float64, seed uint64) *trace.Dataset {
	t.Helper()
	cfg := workload.ScaledConfig(scale)
	cfg.Seed = seed
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.BuildDataset(g.GenerateSpecs())
}

// bitsEqual reports exact bit equality of two float slices (NaN == NaN).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// compareColumn fails unless want and got agree bit-for-bit in both dataset
// order and sorted view.
func compareColumn(t *testing.T, name string, want, got *trace.FloatColumn) {
	t.Helper()
	if !bitsEqual(want.Values(), got.Values()) {
		t.Errorf("%s: dataset-order values differ (n=%d vs %d)", name, want.N(), got.N())
		return
	}
	if !bitsEqual(want.Sorted(), got.Sorted()) {
		t.Errorf("%s: sorted views differ", name)
	}
}

// compareColumns fails unless got (a SegStore snapshot) matches want (a
// from-scratch BuildColumns) bit-for-bit across every figure input.
func compareColumns(t *testing.T, want, got *trace.Columns) {
	t.Helper()
	if len(want.GPU) != len(got.GPU) || len(want.Multi) != len(got.Multi) || len(want.CPU) != len(got.CPU) {
		t.Fatalf("population sizes differ: GPU %d/%d Multi %d/%d CPU %d/%d",
			len(want.GPU), len(got.GPU), len(want.Multi), len(got.Multi), len(want.CPU), len(got.CPU))
	}
	for i := range want.GPU {
		// JobRecord has slice fields, so compare the scalar identity plus
		// the rendered record.
		if want.GPU[i].JobID != got.GPU[i].JobID {
			t.Fatalf("GPU[%d]: job %d vs %d", i, want.GPU[i].JobID, got.GPU[i].JobID)
		}
		if fmt.Sprintf("%v", *want.GPU[i]) != fmt.Sprintf("%v", *got.GPU[i]) {
			t.Fatalf("GPU[%d] (job %d): record contents differ", i, want.GPU[i].JobID)
		}
	}
	compareColumn(t, "RunMin", want.RunMin, got.RunMin)
	compareColumn(t, "WaitSec", want.WaitSec, got.WaitSec)
	compareColumn(t, "WaitPct", want.WaitPct, got.WaitPct)
	compareColumn(t, "GPUHours", want.GPUHours, got.GPUHours)
	compareColumn(t, "HostCPU", want.HostCPU, got.HostCPU)
	compareColumn(t, "CPURunMin", want.CPURunMin, got.CPURunMin)
	compareColumn(t, "CPUWaitSec", want.CPUWaitSec, got.CPUWaitSec)
	compareColumn(t, "CPUWaitPct", want.CPUWaitPct, got.CPUWaitPct)
	compareColumn(t, "CPUHostCPU", want.CPUHostCPU, got.CPUHostCPU)
	for m := 0; m < int(metrics.NumMetrics); m++ {
		compareColumn(t, fmt.Sprintf("Mean[%d]", m), want.Mean[m], got.Mean[m])
		compareColumn(t, fmt.Sprintf("Max[%d]", m), want.Max[m], got.Max[m])
	}
	for s := 0; s < trace.NumSizeClasses; s++ {
		compareColumn(t, fmt.Sprintf("WaitBySize[%d]", s), want.WaitBySize[s], got.WaitBySize[s])
	}
	if fmt.Sprintf("%v", want.NumGPUs) != fmt.Sprintf("%v", got.NumGPUs) {
		t.Errorf("NumGPUs differ")
	}
	if fmt.Sprintf("%v", want.Users) != fmt.Sprintf("%v", got.Users) {
		t.Errorf("Users differ: %v vs %v", want.Users, got.Users)
	}
	if fmt.Sprintf("%v", want.ByUser) != fmt.Sprintf("%v", got.ByUser) {
		t.Errorf("ByUser index differs")
	}
	if fmt.Sprintf("%v", want.ByIface) != fmt.Sprintf("%v", got.ByIface) {
		t.Errorf("ByIface index differs")
	}
	if fmt.Sprintf("%v", want.SeriesIDs) != fmt.Sprintf("%v", got.SeriesIDs) {
		t.Errorf("SeriesIDs differ")
	}
	for _, id := range want.SeriesIDs {
		if want.Series(id) != got.Series(id) {
			t.Errorf("Series(%d) differs", id)
		}
	}
	if math.Float64bits(want.TotalGPUHours) != math.Float64bits(got.TotalGPUHours) {
		t.Errorf("TotalGPUHours: %x vs %x bits", math.Float64bits(want.TotalGPUHours), math.Float64bits(got.TotalGPUHours))
	}
	if want.DurationDays != got.DurationDays {
		t.Errorf("DurationDays: %v vs %v", want.DurationDays, got.DurationDays)
	}
}

// TestSegStoreSnapshotMatchesBuildColumns is the deterministic spine:
// several fixed segment sizes, full dataset appended, snapshot vs
// BuildColumns.
func TestSegStoreSnapshotMatchesBuildColumns(t *testing.T) {
	ds := segJobs(t, 0.08, 17)
	for _, segJobsN := range []int{1, 7, 64, 1000, 1 << 20} {
		t.Run(fmt.Sprintf("segment=%d", segJobsN), func(t *testing.T) {
			st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: segJobsN})
			st.AppendDataset(ds)
			compareColumns(t, trace.BuildColumns(ds), st.Snapshot().Cols)
		})
	}
}

// TestSegStoreRandomSchedules is the property test proper: randomized
// interleavings of append / seal / compact / snapshot, with snapshots taken
// at arbitrary prefixes compared against BuildColumns over the same prefix.
// Earlier snapshots are re-checked at the end to prove immutability under
// later appends and compactions.
func TestSegStoreRandomSchedules(t *testing.T) {
	ds := segJobs(t, 0.05, 23)
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			cfg := trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: -1}
			if rng.Intn(2) == 0 {
				cfg.SegmentJobs = 1 + rng.Intn(200)
			}
			if rng.Intn(2) == 0 {
				cfg.MaxSegments = 1 + rng.Intn(6)
			}
			st := trace.NewSegStore(cfg)
			type taken struct {
				view  *trace.SegView
				nJobs int
			}
			var views []taken
			i := 0
			for i < len(ds.Jobs) {
				switch rng.Intn(10) {
				case 0:
					st.SealTail()
				case 1:
					st.Compact()
				case 2:
					n := st.Len()
					views = append(views, taken{st.Snapshot(), n})
				default:
					batch := 1 + rng.Intn(97)
					if i+batch > len(ds.Jobs) {
						batch = len(ds.Jobs) - i
					}
					st.AppendBatch(ds.Jobs[i : i+batch])
					i += batch
				}
			}
			for _, id := range sortedKeys(ds.Series) {
				st.AttachSeries(ds.Series[id])
			}
			views = append(views, taken{st.Snapshot(), st.Len()})
			// One more destructive round after the final snapshot: earlier
			// views must not see it.
			st.SealTail()
			st.Compact()

			for vi, v := range views {
				prefix := &trace.Dataset{Jobs: ds.Jobs[:v.nJobs], DurationDays: ds.DurationDays}
				if v.nJobs == len(ds.Jobs) {
					prefix.Series = ds.Series
				}
				t.Run(fmt.Sprintf("view=%d/jobs=%d", vi, v.nJobs), func(t *testing.T) {
					compareColumns(t, trace.BuildColumns(prefix), v.view.Cols)
				})
			}
		})
	}
}

func sortedKeys(m map[int64]*trace.TimeSeries) []int64 {
	out := make([]int64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestSegStoreConcurrentSorted materializes a compacted snapshot's sorted
// views from several goroutines at once, each walking the columns in a
// different order: every column's merge of the sealed-prefix cascade and
// the tail must come out bit-identical to BuildColumns at any worker count.
func TestSegStoreConcurrentSorted(t *testing.T) {
	ds := segJobs(t, 0.05, 29)
	want := trace.BuildColumns(ds)
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 111})
			st.AppendDataset(ds)
			st.Compact()
			v := st.Snapshot()
			if v.Segments == 0 || v.TailJobs == 0 {
				t.Fatalf("want sealed segments and a tail, got %d/%d", v.Segments, v.TailJobs)
			}
			cols := []*trace.FloatColumn{v.Cols.RunMin, v.Cols.WaitSec, v.Cols.WaitPct, v.Cols.GPUHours,
				v.Cols.HostCPU, v.Cols.CPURunMin, v.Cols.CPUWaitSec, v.Cols.CPUWaitPct, v.Cols.CPUHostCPU}
			cols = append(cols, v.Cols.WaitBySize[:]...)
			cols = append(cols, v.Cols.Mean[:]...)
			cols = append(cols, v.Cols.Max[:]...)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := range cols {
						cols[(k+w*7)%len(cols)].Sorted()
					}
				}(w)
			}
			wg.Wait()
			compareColumns(t, want, v.Cols)
		})
	}
}

// TestSegStoreSummary checks the O(segments) digest against the population
// ground truth. The moments merge in segment order (Chan et al.), so means
// are compared to the exact population mean within float tolerance — the
// digest is documented as schedule-deterministic, not schedule-invariant.
func TestSegStoreSummary(t *testing.T) {
	ds := segJobs(t, 0.05, 31)
	st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 100, MaxSegments: 4})
	st.AppendDataset(ds)
	cols := trace.BuildColumns(ds)
	sum := st.Summary()
	if sum.Jobs != len(ds.Jobs) {
		t.Errorf("Jobs: %d want %d", sum.Jobs, len(ds.Jobs))
	}
	if sum.GPUJobs != len(cols.GPU) {
		t.Errorf("GPUJobs: %d want %d", sum.GPUJobs, len(cols.GPU))
	}
	if sum.CPUJobs != len(cols.CPU) {
		t.Errorf("CPUJobs: %d want %d", sum.CPUJobs, len(cols.CPU))
	}
	if sum.MultiGPU != len(cols.Multi) {
		t.Errorf("MultiGPU: %d want %d", sum.MultiGPU, len(cols.Multi))
	}
	if sum.GPUHours.N() != len(cols.GPU) {
		t.Errorf("GPUHours.N: %d want %d", sum.GPUHours.N(), len(cols.GPU))
	}
	var exact float64
	for _, h := range cols.GPUHours.Values() {
		exact += h
	}
	if got := sum.GPUHours.Sum(); math.Abs(got-exact) > 1e-6*math.Abs(exact) {
		t.Errorf("GPUHours.Sum: %v want ~%v", got, exact)
	}
	if got, want := sum.WaitSec.Mean(), meanOf(cols.WaitSec.Values()); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("WaitSec.Mean: %v want ~%v", got, want)
	}
}

func meanOf(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// TestSegStoreStageTelemetry checks the monitoring join: telemetry staged
// before the scheduler record arrives is adopted at Append, and the result
// matches a record that carried its telemetry from the start.
func TestSegStoreStageTelemetry(t *testing.T) {
	ds := segJobs(t, 0.02, 37)
	want := trace.BuildColumns(ds)

	st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 50})
	for i := range ds.Jobs {
		j := ds.Jobs[i]
		if j.IsGPU() && j.PerGPU != nil {
			st.StageTelemetry(j.JobID, j.PerGPU, ds.Series[j.JobID])
			j.PerGPU = nil // the scheduler-side record arrives bare
			j.GPU = metrics.MetricSummaries{}
		}
		st.Append(j)
	}
	if n := st.StagedJobs(); n != 0 {
		t.Fatalf("%d staged telemetry records never joined", n)
	}
	got := st.Snapshot().Cols
	// The joined store re-derives GPU summaries from PerGPU; compare the
	// mean columns bit-for-bit (FinalizeGPUSummary is the shared code path).
	for m := 0; m < int(metrics.NumMetrics); m++ {
		compareColumn(t, fmt.Sprintf("joined Mean[%d]", m), want.Mean[m], got.Mean[m])
	}
	if fmt.Sprintf("%v", want.SeriesIDs) != fmt.Sprintf("%v", got.SeriesIDs) {
		t.Errorf("SeriesIDs differ after join: %v vs %v", want.SeriesIDs, got.SeriesIDs)
	}
}

// TestSegStoreConcurrentAppendQuery is a -race scenario: writers
// appending while readers snapshot, query figures inputs, and force sorted
// materialization. Run under -race this pins the snapshot immutability
// contract; without -race it still checks monotonic visibility.
func TestSegStoreConcurrentAppendQuery(t *testing.T) {
	ds := segJobs(t, 0.05, 41)
	st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 64, MaxSegments: 8})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range ds.Jobs {
			st.Append(ds.Jobs[i])
			if ts := ds.Series[ds.Jobs[i].JobID]; ts != nil {
				st.AttachSeries(ts)
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				v := st.Snapshot()
				if v.NJobs < last {
					t.Errorf("snapshot shrank: %d after %d", v.NJobs, last)
					return
				}
				last = v.NJobs
				// Touch both views of a few columns, forcing merges.
				_ = v.Cols.RunMin.Sorted()
				_ = v.Cols.WaitSec.Values()
				_ = v.Cols.GPUHours.Sorted()
				_ = st.Summary()
				if v.NJobs == len(ds.Jobs) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	compareColumns(t, trace.BuildColumns(ds), st.Snapshot().Cols)
}
