package trace

import (
	"math"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// FloatColumn is one typed column of the analysis dataset: the values in
// dataset order plus a lazily materialized, cached sorted view. Quantiles,
// ECDFs and box statistics all consume sorted data; sharing one sorted copy
// per column is what lets ~18 analyses run without re-sorting the same
// numbers (the pre-columnar Characterize sorted some columns four times).
// The zero value is an empty column; FloatColumn must not be copied after
// first use (it embeds a sync.Once).
type FloatColumn struct {
	vals []float64

	once   sync.Once
	sorted []float64

	// runsFn, when set, produces the ascending NaN-free sorted RUNS whose
	// union is the column's multiset — the segmented store injects the
	// cached sealed-prefix run plus the sorted tail here, so a snapshot
	// never re-sorts sealed data. Sorted() merges the runs on first use;
	// Stats() answers quantile/fraction queries by selection across them
	// without ever materializing the merge (the live-query hot path).
	// Guarded by its own Once so both accessors share one materialization.
	runsOnce sync.Once
	runs     [][]float64
	runsFn   func() [][]float64
}

// NewFloatColumn wraps vals (adopted, not copied) as a column.
func NewFloatColumn(vals []float64) *FloatColumn { return &FloatColumn{vals: vals} }

// newMergeSortedColumn wraps vals (adopted, not copied) as a column whose
// sorted view is the merge of the runs produced by runsFn on first use, in
// place of the default sort. Used by SegStore snapshots to stitch
// per-segment sorted runs; runsFn must return ascending NaN-free runs whose
// union is exactly the multiset the default path would produce.
func newMergeSortedColumn(vals []float64, runsFn func() [][]float64) *FloatColumn {
	return &FloatColumn{vals: vals, runsFn: runsFn}
}

// sortedRuns materializes (once) the column's sorted-run decomposition, or
// nil for a plain column.
func (c *FloatColumn) sortedRuns() [][]float64 {
	c.runsOnce.Do(func() {
		if c.runsFn != nil {
			c.runs = c.runsFn()
			c.runsFn = nil // free the closure chain
		}
	})
	return c.runs
}

// Values returns the column in dataset order. Callers must not mutate it.
func (c *FloatColumn) Values() []float64 {
	if c == nil {
		return nil
	}
	return c.vals
}

// N returns the number of values (including NaNs, matching len of Values).
func (c *FloatColumn) N() int {
	if c == nil {
		return 0
	}
	return len(c.vals)
}

// Sorted returns the cached ascending sorted view of the column with NaNs
// dropped — the same multiset an ECDF over Values would hold. The first call
// sorts a copy; later calls (from any goroutine) return the same slice.
// Callers must not mutate it.
func (c *FloatColumn) Sorted() []float64 {
	if c == nil {
		return nil
	}
	c.once.Do(func() {
		if runs := c.sortedRuns(); runs != nil {
			n := 0
			for _, r := range runs {
				n += len(r)
			}
			c.sorted = mergeSortedRuns(runs, n)
			return
		}
		s := make([]float64, 0, len(c.vals))
		for _, v := range c.vals {
			if !math.IsNaN(v) {
				s = append(s, v)
			}
		}
		sort.Float64s(s)
		c.sorted = s
	})
	return c.sorted
}

// Stats returns an order-statistics view of the column: quantiles, threshold
// fractions, and CDF vertices, each bit-identical to computing the same
// statistic over Sorted(). For a plain column the view wraps the cached
// sorted slice; for a segmented-snapshot column it wraps the cached sorted
// RUNS (sealed prefix + tail) and answers by selection, so a live query
// never pays the O(n) merge that Sorted() would materialize. This is the
// read path behind core.CharacterizeSeg and the streaming-ingest benchmark.
func (c *FloatColumn) Stats() *stats.RunsView {
	if c == nil {
		return stats.NewRunsView()
	}
	if runs := c.sortedRuns(); runs != nil {
		return stats.NewRunsView(runs...)
	}
	return stats.NewRunsView(c.Sorted())
}

// SizeClass maps a GPU count onto the paper's §V job-size classes:
// 1 GPU, 2 GPUs, 3–8 GPUs, and 9+ GPUs.
func SizeClass(numGPUs int) int {
	switch {
	case numGPUs <= 1:
		return 0
	case numGPUs == 2:
		return 1
	case numGPUs <= 8:
		return 2
	default:
		return 3
	}
}

// NumSizeClasses is the number of §V job-size classes.
const NumSizeClasses = 4

// Columns is the columnar projection of a Dataset, built in ONE pass over
// the jobs: the filtered analysis populations, typed float64/int vectors for
// every per-job quantity the characterization suite consumes, and grouping
// indexes by user and submission interface. All vectors follow dataset
// (submission-log) order, so sequential accumulations over them reproduce
// the row-walking analyses bit for bit; sorted views are materialized
// lazily per column and shared by every analysis that needs one.
type Columns struct {
	// GPU is the analysis population (GPU jobs running at least
	// MinGPUJobRunSec); the columns below are aligned with it.
	GPU      []*JobRecord
	RunMin   *FloatColumn // run time, minutes
	WaitSec  *FloatColumn // queue wait, seconds
	WaitPct  *FloatColumn // wait as % of service time
	GPUHours *FloatColumn // GPU hours (NumGPUs × run time)
	HostCPU  *FloatColumn // mean host-CPU utilization, %
	NumGPUs  []int
	// Mean[m] and Max[m] are the job-level mean/max of GPU metric m
	// (averaged across the job's GPUs, as JobRecord.GPU records them).
	Mean [metrics.NumMetrics]*FloatColumn
	Max  [metrics.NumMetrics]*FloatColumn
	// WaitBySize[c] is the wait-seconds column of §V size class c.
	WaitBySize [NumSizeClasses]*FloatColumn

	// Multi is the subset of GPU with two or more GPUs.
	Multi []*JobRecord

	// CPU jobs and their columns.
	CPU        []*JobRecord
	CPURunMin  *FloatColumn
	CPUWaitSec *FloatColumn
	CPUWaitPct *FloatColumn
	CPUHostCPU *FloatColumn

	// Users lists distinct users of the GPU population, ascending; ByUser
	// maps each to the indices of its jobs in GPU (dataset order), and
	// ByIface groups the same indices by submission interface.
	Users   []int
	ByUser  map[int][]int32
	ByIface [NumInterfaces][]int32

	// SeriesIDs is the sorted key set of the detailed-monitoring subset, a
	// deterministic iteration order over Dataset.Series.
	SeriesIDs []int64

	// TotalGPUHours is the GPU-hour sum over the analysis population,
	// accumulated in dataset order.
	TotalGPUHours float64
	DurationDays  float64

	series map[int64]*TimeSeries
}

// BuildColumns projects d into columns in a single pass over d.Jobs (plus
// one sort per grouping key set). Prefer Dataset.Columns, which memoizes.
func BuildColumns(d *Dataset) *Columns {
	c := &Columns{
		ByUser:       make(map[int][]int32),
		DurationDays: d.DurationDays,
		series:       d.Series,
	}
	nGPU := 0
	for i := range d.Jobs {
		if j := &d.Jobs[i]; j.IsGPU() && j.RunSec >= MinGPUJobRunSec {
			nGPU++
		}
	}
	nCPU := 0
	for i := range d.Jobs {
		if !d.Jobs[i].IsGPU() {
			nCPU++
		}
	}
	c.GPU = make([]*JobRecord, 0, nGPU)
	c.NumGPUs = make([]int, 0, nGPU)
	runMin := make([]float64, 0, nGPU)
	waitSec := make([]float64, 0, nGPU)
	waitPct := make([]float64, 0, nGPU)
	hours := make([]float64, 0, nGPU)
	hostCPU := make([]float64, 0, nGPU)
	var mean, maxv [metrics.NumMetrics][]float64
	for m := range mean {
		mean[m] = make([]float64, 0, nGPU)
		maxv[m] = make([]float64, 0, nGPU)
	}
	var bySize [NumSizeClasses][]float64
	c.CPU = make([]*JobRecord, 0, nCPU)
	cpuRunMin := make([]float64, 0, nCPU)
	cpuWaitSec := make([]float64, 0, nCPU)
	cpuWaitPct := make([]float64, 0, nCPU)
	cpuHostCPU := make([]float64, 0, nCPU)

	for i := range d.Jobs {
		j := &d.Jobs[i]
		if !j.IsGPU() {
			c.CPU = append(c.CPU, j)
			cpuRunMin = append(cpuRunMin, j.RunSec/60)
			cpuWaitSec = append(cpuWaitSec, j.WaitSec)
			cpuWaitPct = append(cpuWaitPct, j.WaitFraction())
			cpuHostCPU = append(cpuHostCPU, j.HostCPU.Mean)
			continue
		}
		if j.RunSec < MinGPUJobRunSec {
			continue
		}
		idx := int32(len(c.GPU))
		c.GPU = append(c.GPU, j)
		c.NumGPUs = append(c.NumGPUs, j.NumGPUs)
		runMin = append(runMin, j.RunSec/60)
		waitSec = append(waitSec, j.WaitSec)
		waitPct = append(waitPct, j.WaitFraction())
		h := j.GPUHours()
		hours = append(hours, h)
		c.TotalGPUHours += h
		hostCPU = append(hostCPU, j.HostCPU.Mean)
		for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
			mean[m] = append(mean[m], j.GPU[m].Mean)
			maxv[m] = append(maxv[m], j.GPU[m].Max)
		}
		bySize[SizeClass(j.NumGPUs)] = append(bySize[SizeClass(j.NumGPUs)], j.WaitSec)
		if j.NumGPUs >= 2 {
			c.Multi = append(c.Multi, j)
		}
		c.ByUser[j.User] = append(c.ByUser[j.User], idx)
		if j.Interface >= 0 && j.Interface < NumInterfaces {
			c.ByIface[j.Interface] = append(c.ByIface[j.Interface], idx)
		}
	}

	c.RunMin = NewFloatColumn(runMin)
	c.WaitSec = NewFloatColumn(waitSec)
	c.WaitPct = NewFloatColumn(waitPct)
	c.GPUHours = NewFloatColumn(hours)
	c.HostCPU = NewFloatColumn(hostCPU)
	for m := range mean {
		c.Mean[m] = NewFloatColumn(mean[m])
		c.Max[m] = NewFloatColumn(maxv[m])
	}
	for s := range bySize {
		c.WaitBySize[s] = NewFloatColumn(bySize[s])
	}
	c.CPURunMin = NewFloatColumn(cpuRunMin)
	c.CPUWaitSec = NewFloatColumn(cpuWaitSec)
	c.CPUWaitPct = NewFloatColumn(cpuWaitPct)
	c.CPUHostCPU = NewFloatColumn(cpuHostCPU)

	c.Users = make([]int, 0, len(c.ByUser))
	for u := range c.ByUser {
		c.Users = append(c.Users, u)
	}
	sort.Ints(c.Users)

	c.SeriesIDs = make([]int64, 0, len(d.Series))
	for id := range d.Series {
		c.SeriesIDs = append(c.SeriesIDs, id)
	}
	sort.Slice(c.SeriesIDs, func(a, b int) bool { return c.SeriesIDs[a] < c.SeriesIDs[b] })
	return c
}

// Series returns the detailed time series of a job, or nil. Iterate
// SeriesIDs for a deterministic order over the monitoring subset.
func (c *Columns) Series(id int64) *TimeSeries { return c.series[id] }

// Gather returns the values of col at the given row indices, in index
// order — the per-group projection used by the user and interface analyses.
func Gather(col *FloatColumn, idx []int32) []float64 {
	out := make([]float64, len(idx))
	vals := col.Values()
	for i, k := range idx {
		out[i] = vals[k]
	}
	return out
}
