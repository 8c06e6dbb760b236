package trace

import (
	"math"
	"sort"
	"testing"

	"repro/internal/metrics"
)

// columnsFixture builds a small mixed dataset exercising every grouping:
// filtered short jobs, multi-GPU jobs, several users and interfaces, CPU
// jobs, and an attached series. Waits differ across size classes and CPU
// jobs so a value routed to the wrong column shows.
func columnsFixture() *Dataset {
	d := NewDataset(125)
	j1 := gpuJob(1, 0, 3600, 1)
	j1.Interface = Batch
	d.Add(j1)
	d.Add(gpuJob(2, 0, 10, 1)) // filtered: < 30 s
	j3 := gpuJob(3, 1, 600, 4)
	j3.Interface = Interactive
	j3.WaitSec = 200
	d.Add(j3)
	j4 := gpuJob(4, 1, 1800, 2)
	j4.WaitSec = 40
	d.Add(j4)
	d.Add(cpuJob(5, 2, 480))
	j6 := cpuJob(6, 0, 120)
	j6.WaitSec = 30
	j6.HostCPU.Mean = 55
	d.Add(j6)
	d.AttachSeries(&TimeSeries{JobID: 1, IntervalSec: 1, PerGPU: [][]metrics.Sample{make([]metrics.Sample, 60)}})
	d.AttachSeries(&TimeSeries{JobID: 3, IntervalSec: 1, PerGPU: [][]metrics.Sample{make([]metrics.Sample, 60)}})
	return d
}

// TestColumnsMatchRowScans checks every column and grouping index against
// the row-walking Dataset accessors it replaces.
func TestColumnsMatchRowScans(t *testing.T) {
	d := columnsFixture()
	c := d.Columns()

	wantGPU := d.GPUJobs()
	if len(c.GPU) != len(wantGPU) {
		t.Fatalf("GPU population %d, want %d", len(c.GPU), len(wantGPU))
	}
	for i := range wantGPU {
		if c.GPU[i] != wantGPU[i] {
			t.Fatalf("GPU[%d] points at a different record", i)
		}
	}
	wantCPU := d.CPUJobs()
	if len(c.CPU) != len(wantCPU) {
		t.Fatalf("CPU population %d, want %d", len(c.CPU), len(wantCPU))
	}
	for i, j := range wantCPU {
		if c.CPU[i] != j {
			t.Fatalf("CPU[%d] points at a different record", i)
		}
		if c.CPURunMin.Values()[i] != j.RunSec/60 || c.CPUWaitSec.Values()[i] != j.WaitSec ||
			c.CPUWaitPct.Values()[i] != j.WaitFraction() || c.CPUHostCPU.Values()[i] != j.HostCPU.Mean {
			t.Fatalf("CPU columns mismatch at %d", i)
		}
	}
	if c.CPURunMin.N() != len(wantCPU) || c.CPUWaitSec.N() != len(wantCPU) ||
		c.CPUWaitPct.N() != len(wantCPU) || c.CPUHostCPU.N() != len(wantCPU) {
		t.Fatal("CPU column lengths differ from the CPU population")
	}
	wantMulti := d.MultiGPUJobs()
	if len(c.Multi) != len(wantMulti) {
		t.Fatalf("Multi population %d, want %d", len(c.Multi), len(wantMulti))
	}
	for i := range wantMulti {
		if c.Multi[i] != wantMulti[i] {
			t.Fatalf("Multi[%d] points at a different record", i)
		}
	}

	wantRun := RunMinutes(wantGPU)
	for i, v := range c.RunMin.Values() {
		if v != wantRun[i] {
			t.Fatalf("RunMin[%d] = %v, want %v", i, v, wantRun[i])
		}
	}
	for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
		wantMean, wantMax := MeanValues(wantGPU, m), MaxValues(wantGPU, m)
		for i := range wantGPU {
			if c.Mean[m].Values()[i] != wantMean[i] || c.Max[m].Values()[i] != wantMax[i] {
				t.Fatalf("metric %v column mismatch at %d", m, i)
			}
		}
	}
	for i, j := range wantGPU {
		if c.WaitSec.Values()[i] != j.WaitSec || c.WaitPct.Values()[i] != j.WaitFraction() ||
			c.GPUHours.Values()[i] != j.GPUHours() || c.NumGPUs[i] != j.NumGPUs ||
			c.HostCPU.Values()[i] != j.HostCPU.Mean {
			t.Fatalf("per-job columns mismatch at %d", i)
		}
	}
	if c.TotalGPUHours != d.TotalGPUHours() {
		t.Fatalf("TotalGPUHours %v, want %v", c.TotalGPUHours, d.TotalGPUHours())
	}

	// Grouping indexes.
	wantUsers := make([]int, 0)
	for u := range d.ByUser() {
		wantUsers = append(wantUsers, u)
	}
	sort.Ints(wantUsers)
	if len(c.Users) != len(wantUsers) {
		t.Fatalf("Users = %v, want %v", c.Users, wantUsers)
	}
	for u, jobs := range d.ByUser() {
		idx := c.ByUser[u]
		if len(idx) != len(jobs) {
			t.Fatalf("ByUser[%d] size %d, want %d", u, len(idx), len(jobs))
		}
		for k, j := range jobs {
			if c.GPU[idx[k]] != j {
				t.Fatalf("ByUser[%d][%d] wrong record", u, k)
			}
		}
	}
	for iface, jobs := range d.ByInterface() {
		idx := c.ByIface[iface]
		if len(idx) != len(jobs) {
			t.Fatalf("ByIface[%v] size %d, want %d", iface, len(idx), len(jobs))
		}
		for k, j := range jobs {
			if c.GPU[idx[k]] != j {
				t.Fatalf("ByIface[%v][%d] wrong record", iface, k)
			}
		}
	}

	// Each size-class wait column holds the waits of its class, in order.
	for s := range c.WaitBySize {
		var want []float64
		for _, j := range wantGPU {
			if SizeClass(j.NumGPUs) == s {
				want = append(want, j.WaitSec)
			}
		}
		got := c.WaitBySize[s].Values()
		if len(got) != len(want) {
			t.Fatalf("WaitBySize[%d] = %v, want %v", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("WaitBySize[%d] = %v, want %v", s, got, want)
			}
		}
	}

	// Series order is the sorted key set.
	if len(c.SeriesIDs) != len(d.Series) || !sort.SliceIsSorted(c.SeriesIDs, func(a, b int) bool {
		return c.SeriesIDs[a] < c.SeriesIDs[b]
	}) {
		t.Fatalf("SeriesIDs = %v", c.SeriesIDs)
	}
	for _, id := range c.SeriesIDs {
		if c.Series(id) != d.Series[id] {
			t.Fatalf("Series(%d) mismatch", id)
		}
	}
}

// TestFloatColumnSorted checks the lazily cached sorted view: ascending,
// NaN-free, shared across calls, with the raw order untouched.
func TestFloatColumnSorted(t *testing.T) {
	col := NewFloatColumn([]float64{3, math.NaN(), 1, 2, 1})
	s1 := col.Sorted()
	want := []float64{1, 1, 2, 3}
	if len(s1) != len(want) {
		t.Fatalf("sorted = %v", s1)
	}
	for i := range want {
		if s1[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", s1, want)
		}
	}
	s2 := col.Sorted()
	if &s1[0] != &s2[0] {
		t.Fatal("Sorted re-materialized instead of returning the cache")
	}
	if col.Values()[0] != 3 {
		t.Fatal("Values order disturbed by sorting")
	}
	var nilCol *FloatColumn
	if nilCol.N() != 0 || nilCol.Sorted() != nil || nilCol.Values() != nil {
		t.Fatal("nil column accessors not empty")
	}
}

// TestColumnsMemoInvalidation checks that Dataset.Columns is cached and that
// Add/AttachSeries drop the memo.
func TestColumnsMemoInvalidation(t *testing.T) {
	d := columnsFixture()
	c1 := d.Columns()
	if d.Columns() != c1 {
		t.Fatal("Columns not memoized")
	}
	d.Add(gpuJob(7, 3, 900, 8))
	c2 := d.Columns()
	if c2 == c1 {
		t.Fatal("Add did not invalidate the memo")
	}
	if len(c2.GPU) != len(c1.GPU)+1 {
		t.Fatalf("rebuilt GPU population %d", len(c2.GPU))
	}
	d.AttachSeries(&TimeSeries{JobID: 7, IntervalSec: 1, PerGPU: [][]metrics.Sample{make([]metrics.Sample, 10)}})
	if c3 := d.Columns(); c3 == c2 || len(c3.SeriesIDs) != 3 {
		t.Fatal("AttachSeries did not invalidate the memo")
	}
}

// TestSizeClass pins the §V size-class mapping.
func TestSizeClass(t *testing.T) {
	for _, tc := range []struct{ gpus, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {8, 2}, {9, 3}, {32, 3},
	} {
		if got := SizeClass(tc.gpus); got != tc.want {
			t.Errorf("SizeClass(%d) = %d, want %d", tc.gpus, got, tc.want)
		}
	}
}
