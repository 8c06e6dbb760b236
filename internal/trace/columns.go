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
// place of the default sort. Used by SegStore to stitch the sealed-prefix
// merge cascade and a snapshot's tail; runsFn must return ascending NaN-free
// runs whose union is exactly the multiset the default path would produce.
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
			c.sorted = mergeSortedRuns(runs)
			return
		}
		c.sorted = sortDropNaN(c.vals)
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
// The result aliases d.Jobs and d.Series.
func BuildColumns(d *Dataset) *Columns {
	nGPU, nCPU := 0, 0
	for i := range d.Jobs {
		switch j := &d.Jobs[i]; {
		case !j.IsGPU():
			nCPU++
		case j.RunSec >= MinGPUJobRunSec:
			nGPU++
		}
	}
	p := newProjection(nGPU, nCPU)
	for i := range d.Jobs {
		p.add(&d.Jobs[i])
	}
	return p.columns(d.DurationDays, d.Series, func(_ int, vals []float64) *FloatColumn {
		return NewFloatColumn(vals)
	})
}

// Ids of projection's float arrays, one per FloatColumn field of Columns.
const (
	sfRunMin = iota
	sfWaitSec
	sfWaitPct
	sfGPUHours
	sfHostCPU
	sfCPURunMin
	sfCPUWaitSec
	sfCPUWaitPct
	sfCPUHostCPU
	sfWaitSize0 // + size class; NumSizeClasses columns
)

// sfMean0/sfMax0 are the bases of the per-metric mean/max column blocks.
const (
	sfMean0      = sfWaitSize0 + NumSizeClasses
	sfMax0       = sfMean0 + int(metrics.NumMetrics)
	numFloatCols = sfMax0 + int(metrics.NumMetrics)
)

// projection is the one row-to-column mapping behind both BuildColumns and
// SegStore: append-only arrays holding every per-job value Columns exposes,
// filled one record at a time in append order. Elements below an array's
// length are never rewritten and append only writes at or past it, so a
// full-slice-expression view vals[:n:n] is immutable forever — which is
// what lets a SegStore snapshot share the arrays with later appends.
type projection struct {
	f       [numFloatCols][]float64
	numGPUs []int
	gpu     []*JobRecord
	multi   []*JobRecord
	cpu     []*JobRecord
	byUser  map[int][]int32
	byIface [NumInterfaces][]int32
	// totalGPUHours accumulates in append order, the float sequence every
	// figure's sequential scan folds.
	totalGPUHours float64
}

// newProjection presizes the population arrays for nGPU analysis-population
// GPU jobs and nCPU CPU jobs.
func newProjection(nGPU, nCPU int) *projection {
	p := &projection{
		numGPUs: make([]int, 0, nGPU),
		gpu:     make([]*JobRecord, 0, nGPU),
		cpu:     make([]*JobRecord, 0, nCPU),
		byUser:  make(map[int][]int32),
	}
	for id := range p.f {
		switch {
		case id >= sfCPURunMin && id <= sfCPUHostCPU:
			p.f[id] = make([]float64, 0, nCPU)
		case id >= sfWaitSize0 && id < sfMean0:
			// The size classes split the GPU population; they grow on demand.
		default:
			p.f[id] = make([]float64, 0, nGPU)
		}
	}
	return p
}

// add projects one record. CPU jobs join the CPU population; GPU jobs join
// the analysis population only when they ran at least MinGPUJobRunSec. It
// reports whether jp joined the GPU analysis population.
func (p *projection) add(jp *JobRecord) bool {
	if !jp.IsGPU() {
		p.cpu = append(p.cpu, jp)
		p.f[sfCPURunMin] = append(p.f[sfCPURunMin], jp.RunSec/60)
		p.f[sfCPUWaitSec] = append(p.f[sfCPUWaitSec], jp.WaitSec)
		p.f[sfCPUWaitPct] = append(p.f[sfCPUWaitPct], jp.WaitFraction())
		p.f[sfCPUHostCPU] = append(p.f[sfCPUHostCPU], jp.HostCPU.Mean)
		return false
	}
	if jp.RunSec < MinGPUJobRunSec {
		return false
	}
	idx := int32(len(p.gpu))
	p.gpu = append(p.gpu, jp)
	p.numGPUs = append(p.numGPUs, jp.NumGPUs)
	p.f[sfRunMin] = append(p.f[sfRunMin], jp.RunSec/60)
	p.f[sfWaitSec] = append(p.f[sfWaitSec], jp.WaitSec)
	p.f[sfWaitPct] = append(p.f[sfWaitPct], jp.WaitFraction())
	h := jp.GPUHours()
	p.f[sfGPUHours] = append(p.f[sfGPUHours], h)
	p.totalGPUHours += h
	p.f[sfHostCPU] = append(p.f[sfHostCPU], jp.HostCPU.Mean)
	for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
		p.f[sfMean0+int(m)] = append(p.f[sfMean0+int(m)], jp.GPU[m].Mean)
		p.f[sfMax0+int(m)] = append(p.f[sfMax0+int(m)], jp.GPU[m].Max)
	}
	size := sfWaitSize0 + SizeClass(jp.NumGPUs)
	p.f[size] = append(p.f[size], jp.WaitSec)
	if jp.NumGPUs >= 2 {
		p.multi = append(p.multi, jp)
	}
	p.byUser[jp.User] = append(p.byUser[jp.User], idx)
	if jp.Interface >= 0 && jp.Interface < NumInterfaces {
		p.byIface[jp.Interface] = append(p.byIface[jp.Interface], idx)
	}
	return true
}

// columns assembles a Columns over everything added so far from
// full-slice-expression views of the arrays, so later adds never show
// through. col wraps each float array view (given its sf* id) as a column;
// series is adopted as the Columns' series map.
func (p *projection) columns(durationDays float64, series map[int64]*TimeSeries, col func(id int, vals []float64) *FloatColumn) *Columns {
	view := func(id int) *FloatColumn {
		n := len(p.f[id])
		return col(id, p.f[id][:n:n])
	}
	c := &Columns{
		GPU:           p.gpu[:len(p.gpu):len(p.gpu)],
		RunMin:        view(sfRunMin),
		WaitSec:       view(sfWaitSec),
		WaitPct:       view(sfWaitPct),
		GPUHours:      view(sfGPUHours),
		HostCPU:       view(sfHostCPU),
		NumGPUs:       p.numGPUs[:len(p.numGPUs):len(p.numGPUs)],
		Multi:         p.multi[:len(p.multi):len(p.multi)],
		CPU:           p.cpu[:len(p.cpu):len(p.cpu)],
		CPURunMin:     view(sfCPURunMin),
		CPUWaitSec:    view(sfCPUWaitSec),
		CPUWaitPct:    view(sfCPUWaitPct),
		CPUHostCPU:    view(sfCPUHostCPU),
		Users:         make([]int, 0, len(p.byUser)),
		ByUser:        make(map[int][]int32, len(p.byUser)),
		SeriesIDs:     sortedSeriesKeys(series),
		TotalGPUHours: p.totalGPUHours,
		DurationDays:  durationDays,
		series:        series,
	}
	for m := 0; m < int(metrics.NumMetrics); m++ {
		c.Mean[m] = view(sfMean0 + m)
		c.Max[m] = view(sfMax0 + m)
	}
	for s := range c.WaitBySize {
		c.WaitBySize[s] = view(sfWaitSize0 + s)
	}
	for u, idx := range p.byUser {
		c.Users = append(c.Users, u)
		c.ByUser[u] = idx[:len(idx):len(idx)]
	}
	sort.Ints(c.Users)
	for i, idx := range p.byIface {
		c.ByIface[i] = idx[:len(idx):len(idx)]
	}
	return c
}

// sortedSeriesKeys returns m's keys ascending.
func sortedSeriesKeys(m map[int64]*TimeSeries) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
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

// sortDropNaN returns a fresh ascending copy of vals with NaNs dropped (the
// FloatColumn.Sorted contract).
func sortDropNaN(vals []float64) []float64 {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	sort.Float64s(s)
	return s
}

// mergeSortedRuns k-way merges ascending runs into one ascending slice by
// rounds of pairwise merges in run order — O(n log k) with sequential
// memory traffic, and the output is the same ascending multiset a full
// sort would produce.
func mergeSortedRuns(runs [][]float64) []float64 {
	live := make([][]float64, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return []float64{}
	case 1:
		return live[0]
	}
	for len(live) > 1 {
		next := live[:0]
		for i := 0; i+1 < len(live); i += 2 {
			next = append(next, mergeTwo(live[i], live[i+1]))
		}
		if len(live)%2 == 1 {
			next = append(next, live[len(live)-1])
		}
		live = next
	}
	return live[0]
}

// mergeTwo merges two ascending runs into a fresh slice.
func mergeTwo(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		if a[i] <= b[k] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[k])
			k++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[k:]...)
	return out
}
