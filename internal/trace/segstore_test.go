package trace_test

// Property tests for the segmented store. The central invariant is the
// ISSUE 8 acceptance bar: a SegStore snapshot must be BIT-identical to
// BuildColumns over the same job sequence — same dataset-order float
// vectors, same sorted views, same grouping indexes, same accumulated
// totals — for ANY seal schedule. The tests compare float
// payloads through math.Float64bits so an exact-zero-sign or ulp drift
// fails loudly rather than slipping under an epsilon.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
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
	if want.GPUJobs != got.GPUJobs || want.MultiGPU.Jobs != got.MultiGPU.Jobs {
		t.Errorf("counts: GPUJobs %d/%d MultiGPU.Jobs %d/%d", want.GPUJobs, got.GPUJobs, want.MultiGPU.Jobs, got.MultiGPU.Jobs)
	}
	// The folds hold floats only through sums and Welford states; %v
	// renders every bit a float64 carries (shortest round-trip form).
	if fmt.Sprintf("%v", want.UserFolds) != fmt.Sprintf("%v", got.UserFolds) {
		t.Errorf("UserFolds differ")
	}
	if fmt.Sprintf("%v", want.GPUCounts) != fmt.Sprintf("%v", got.GPUCounts) {
		t.Errorf("GPUCounts differ: %v vs %v", want.GPUCounts, got.GPUCounts)
	}
	for k := range want.ByCategory {
		w, g := &want.ByCategory[k], &got.ByCategory[k]
		compareColumn(t, fmt.Sprintf("ByCategory[%d].RunMin", k), w.RunMin, g.RunMin)
		for i := range w.Mean {
			compareColumn(t, fmt.Sprintf("ByCategory[%d].Mean[%d]", k, i), w.Mean[i], g.Mean[i])
		}
		if math.Float64bits(w.GPUHours) != math.Float64bits(g.GPUHours) {
			t.Errorf("ByCategory[%d].GPUHours: %x vs %x bits", k, math.Float64bits(w.GPUHours), math.Float64bits(g.GPUHours))
		}
	}
	for i := range want.IfaceMean {
		for k := range want.IfaceMean[i] {
			compareColumn(t, fmt.Sprintf("IfaceMean[%d][%d]", i, k), want.IfaceMean[i][k], got.IfaceMean[i][k])
		}
	}
	wm, gm := &want.MultiGPU, &got.MultiGPU
	for k := range wm.CoVAll {
		compareColumn(t, fmt.Sprintf("MultiGPU.CoVAll[%d]", k), wm.CoVAll[k], gm.CoVAll[k])
		compareColumn(t, fmt.Sprintf("MultiGPU.CoVActive[%d]", k), wm.CoVActive[k], gm.CoVActive[k])
	}
	if wm.Considered != gm.Considered || wm.WithIdle != gm.WithIdle || wm.HalfIdle != gm.HalfIdle {
		t.Errorf("MultiGPU counters: %d/%d/%d vs %d/%d/%d", wm.Considered, wm.WithIdle, wm.HalfIdle,
			gm.Considered, gm.WithIdle, gm.HalfIdle)
	}
	if want.Bottlenecks != got.Bottlenecks {
		t.Errorf("Bottlenecks: %+v vs %+v", want.Bottlenecks, got.Bottlenecks)
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
// interleavings of append / seal / snapshot, with snapshots taken at
// arbitrary prefixes compared against BuildColumns over the same prefix.
// Earlier snapshots are re-checked at the end to prove immutability under
// later appends and seals. Beside the drawn store, stores sealing every 1,
// 7 and 4096 jobs and one sealing only manually follow the same schedule;
// at every snapshot point each Summary must be bit-identical to that of a
// store that never sealed.
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
			// MaxSegments is ignored; the draw stays so that each trial
			// keeps its schedule.
			if rng.Intn(2) == 0 {
				cfg.MaxSegments = 1 + rng.Intn(6)
			}
			st := trace.NewSegStore(cfg)
			sealing := []*trace.SegStore{st}
			for _, n := range []int{1, 7, 4096, -1} {
				sealing = append(sealing, trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: n}))
			}
			never := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: -1})
			all := append(sealing[:len(sealing):len(sealing)], never)
			checkSummaries := func() {
				t.Helper()
				want := summaryBits(never.Summary())
				for k, o := range sealing {
					if got := summaryBits(o.Summary()); got != want {
						t.Fatalf("store %d (%d segments) at %d jobs: summary differs from a never-sealed store's:\n got %s\nwant %s",
							k, o.Segments(), o.Len(), got, want)
					}
				}
			}
			type taken struct {
				view  *trace.SegView
				nJobs int
			}
			var views []taken
			i := 0
			for i < len(ds.Jobs) {
				switch rng.Intn(10) {
				case 0, 1:
					for _, o := range sealing {
						o.SealTail()
					}
				case 2:
					n := st.Len()
					views = append(views, taken{st.Snapshot(), n})
					checkSummaries()
				default:
					batch := 1 + rng.Intn(97)
					if i+batch > len(ds.Jobs) {
						batch = len(ds.Jobs) - i
					}
					for _, o := range all {
						o.AppendBatch(ds.Jobs[i : i+batch])
					}
					i += batch
				}
			}
			for _, id := range sortedKeys(ds.Series) {
				st.AttachSeries(ds.Series[id])
			}
			views = append(views, taken{st.Snapshot(), st.Len()})
			checkSummaries()
			// One more seal after the final snapshot: earlier views must
			// not see it.
			st.SealTail()

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

// TestSegStoreSealRefreshesView: a seal changes the segment count and tail
// size a view reports, so the next Snapshot must not return the memoized
// view from before it; the earlier view itself stays as it was.
func TestSegStoreSealRefreshesView(t *testing.T) {
	ds := segJobs(t, 0.01, 5)
	st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: -1})
	st.AppendBatch(ds.Jobs[:10])
	before := st.Snapshot()
	st.SealTail()
	after := st.Snapshot()
	if after.Segments != 1 || after.TailJobs != 0 || after.Gen <= before.Gen {
		t.Fatalf("view after the seal: %d segments, %d tail jobs, gen %d (gen %d before); want 1, 0, later",
			after.Segments, after.TailJobs, after.Gen, before.Gen)
	}
	if st.Segments() != after.Segments || st.TailJobs() != after.TailJobs {
		t.Fatalf("store reads %d/%d, its view %d/%d", st.Segments(), st.TailJobs(), after.Segments, after.TailJobs)
	}
	if before.Segments != 0 || before.TailJobs != 10 {
		t.Fatalf("view before the seal changed to %d/%d", before.Segments, before.TailJobs)
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

// TestSegStoreConcurrentSorted materializes a sealed snapshot's sorted
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
			v := st.Snapshot()
			if v.Segments == 0 || v.TailJobs == 0 {
				t.Fatalf("want sealed segments and a tail, got %d/%d", v.Segments, v.TailJobs)
			}
			cols := floatColumns(v.Cols)
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

// floatColumns lists every float column of c.
func floatColumns(c *trace.Columns) []*trace.FloatColumn {
	cols := []*trace.FloatColumn{c.RunMin, c.WaitSec, c.WaitPct, c.GPUHours,
		c.HostCPU, c.CPURunMin, c.CPUWaitSec, c.CPUWaitPct, c.CPUHostCPU}
	cols = append(cols, c.WaitBySize[:]...)
	cols = append(cols, c.Mean[:]...)
	cols = append(cols, c.Max[:]...)
	for k := range c.ByCategory {
		cols = append(cols, c.ByCategory[k].RunMin)
		cols = append(cols, c.ByCategory[k].Mean[:]...)
	}
	for i := range c.IfaceMean {
		cols = append(cols, c.IfaceMean[i][:]...)
	}
	cols = append(cols, c.MultiGPU.CoVAll[:]...)
	return append(cols, c.MultiGPU.CoVActive[:]...)
}

// TestSegStoreFoldBound checks the sealed-prefix fold rule over random
// append and seal schedules. After every AppendBatch and SealTail, each
// column's sealed values waiting to be folded number at most 1/K of its
// sorted prefix plus one segment, so a query merges at most about n/(K+1)
// sealed values. And a prefix only grows by at least 1/K of itself, so
// ingest merges each value into a prefix about K+1 times on average.
func TestSegStoreFoldBound(t *testing.T) {
	ds := segJobs(t, 0.05, 43)
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		segJobsN := 1 + rng.Intn(600)
		if trial == 0 {
			segJobsN = 1
		}
		t.Run(fmt.Sprintf("trial=%d/segment=%d", trial, segJobsN), func(t *testing.T) {
			st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: segJobsN})
			var last []int
			folds := 0
			check := func(op string) {
				t.Helper()
				waiting, prefix := st.FoldBacklog()
				for c := range waiting {
					if waiting[c] > prefix[c]/trace.FoldRatio+segJobsN {
						t.Fatalf("after %s at %d jobs: column %d has %d sealed values waiting beside a %d-value prefix",
							op, st.Len(), c, waiting[c], prefix[c])
					}
					if last == nil || prefix[c] == last[c] {
						continue
					}
					folds++
					if grown := prefix[c] - last[c]; grown < 0 || trace.FoldRatio*grown < last[c] {
						t.Fatalf("after %s at %d jobs: column %d's prefix went from %d to %d values, not by 1/%d of itself",
							op, st.Len(), c, last[c], prefix[c], trace.FoldRatio)
					}
				}
				last = prefix
			}
			for i := 0; i < len(ds.Jobs); {
				if rng.Intn(8) == 0 {
					st.SealTail()
					check("a seal")
					continue
				}
				n := min(1+rng.Intn(400), len(ds.Jobs)-i)
				st.AppendBatch(ds.Jobs[i : i+n])
				i += n
				check("an append")
			}
			if folds == 0 {
				t.Fatal("no column was ever folded")
			}
			compareColumns(t, trace.BuildColumns(&trace.Dataset{Jobs: ds.Jobs, DurationDays: ds.DurationDays}), st.Snapshot().Cols)
		})
	}
}

// TestSegStoreSummary checks the digest against the population ground
// truth. Welford's running mean is not the sum-then-divide mean, so means
// are compared within float tolerance.
func TestSegStoreSummary(t *testing.T) {
	ds := segJobs(t, 0.05, 31)
	st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 100})
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
// materialization, and a settler folds sealed runs into the prefixes,
// snapshotting and sorting while each round's folds are in flight. Once it
// has done so, two more goroutines call Settle concurrently with it. Run
// under -race this pins the snapshot immutability contract; without -race
// it still checks monotonic visibility, and that views taken mid-fold sort
// to their own values.
func TestSegStoreConcurrentAppendQuery(t *testing.T) {
	ds := segJobs(t, 0.05, 41)
	st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 64})

	var wg sync.WaitGroup
	written := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(written)
		// Append does not settle; the settler below does.
		for i := range ds.Jobs {
			st.Append(ds.Jobs[i])
			if ts := ds.Series[ds.Jobs[i].JobID]; ts != nil {
				st.AttachSeries(ts)
			}
		}
	}()
	var midFold []*trace.SegView
	// Until the settler below has taken its first snapshot mid-fold it is
	// the only goroutine that settles, so it is sure to take one.
	firstFold := make(chan struct{})
	var firstOnce sync.Once
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer firstOnce.Do(func() { close(firstFold) })
		for {
			r := st.TakeSettle()
			if r.Folds() > 0 {
				v := st.Snapshot()
				_ = v.Cols.RunMin.Sorted()
				_ = v.Cols.GPUHours.Stats().Quantile(0.5)
				midFold = append(midFold, v)
				firstOnce.Do(func() { close(firstFold) })
			}
			st.FinishSettle(r)
			select {
			case <-written:
				if r.Folds() == 0 {
					return
				}
			default:
				runtime.Gosched()
			}
		}
	}()
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-firstFold
			for {
				st.Settle()
				select {
				case <-written:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
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
	st.Settle()
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	waiting, prefix := st.FoldBacklog()
	for c := range waiting {
		if trace.FoldRatio*waiting[c] > prefix[c] {
			t.Errorf("settled store: column %d has %d sealed values waiting beside a %d-value prefix", c, waiting[c], prefix[c])
		}
	}
	if len(midFold) == 0 {
		t.Fatal("no snapshot was taken while a fold was in flight")
	}
	for _, v := range midFold {
		for k, c := range floatColumns(v.Cols) {
			want := make([]float64, 0, c.N())
			for _, x := range c.Values() {
				if !math.IsNaN(x) {
					want = append(want, x)
				}
			}
			sort.Float64s(want)
			if !bitsEqual(want, c.Sorted()) {
				t.Fatalf("view of %d jobs taken mid-fold: column %d sorts to other values than it holds", v.NJobs, k)
			}
		}
	}
	compareColumns(t, trace.BuildColumns(ds), st.Snapshot().Cols)
}
