package trace

import (
	"maps"
	"math"
	"math/bits"
	"slices"
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

// N returns the number of values, NaNs included.
func (c *FloatColumn) N() int {
	if c == nil {
		return 0
	}
	return len(c.vals)
}

// Sorted returns the cached ascending sorted view of the column with NaNs
// dropped — the same multiset an ECDF over the values would hold. The
// first call sorts a copy; later calls (from any goroutine) return the same
// slice. Callers must not mutate it.
func (c *FloatColumn) Sorted() []float64 {
	if c == nil {
		return nil
	}
	c.once.Do(func() {
		if runs := c.sortedRuns(); runs != nil {
			c.sorted = stats.MergeRuns(runs)
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
// the jobs: the filtered analysis populations, typed float64 vectors for
// every per-job quantity the characterization suite consumes, and per-user
// and per-GPU-count folds. All vectors follow dataset (submission-log)
// order, so sequential accumulations over them reproduce the row-walking
// analyses bit for bit; sorted views are materialized lazily per column and
// shared by every analysis that needs one.
//
// The grouped columns — ByCategory (Figs. 15–16), IfaceMean (Fig. 5),
// MultiGPU (Fig. 14) and Bottlenecks (Figs. 7b/8) — hold the per-group and
// per-job values those figures sort or count, and the folds — UserFolds
// (§IV, Figs. 10–12 and 17) and GPUCounts (Fig. 13) — the per-user and
// per-GPU-count sums and moments, all projected once as each job is added.
// A query therefore reads cached sorted runs, counters and folds instead of
// gathering, recomputing and re-sorting the population; no figure reads
// the record slices GPU, Multi and CPU.
type Columns struct {
	// GPU is the analysis population (GPU jobs running at least
	// MinGPUJobRunSec); the columns below are aligned with it. GPUJobs is
	// its size.
	GPU      []*JobRecord
	GPUJobs  int
	RunMin   *FloatColumn // run time, minutes
	WaitSec  *FloatColumn // queue wait, seconds
	WaitPct  *FloatColumn // wait as % of service time
	GPUHours *FloatColumn // GPU hours (NumGPUs × run time)
	HostCPU  *FloatColumn // mean host-CPU utilization, %
	// Mean[m] and Max[m] are the job-level mean/max of GPU metric m
	// (averaged across the job's GPUs, as JobRecord.GPU records them).
	Mean [metrics.NumMetrics]*FloatColumn
	Max  [metrics.NumMetrics]*FloatColumn
	// WaitBySize[c] is the wait-seconds column of §V size class c.
	WaitBySize [NumSizeClasses]*FloatColumn

	// ByCategory[k] holds the GPU jobs of §VI life-cycle category k; the
	// four categories partition the population.
	ByCategory [NumCategories]CategoryColumns
	// IfaceMean[i][k] is the job-level mean of SM (k = 0) and memory
	// bandwidth (k = 1) utilization over interface i's GPU jobs.
	IfaceMean [NumInterfaces][numIfaceMetrics]*FloatColumn

	// Multi is the subset of GPU with two or more GPUs; MultiGPU holds
	// their count and cross-GPU statistics.
	Multi    []*JobRecord
	MultiGPU MultiGPUColumns
	// GPUCounts folds the GPU population by GPU count (Fig. 13).
	GPUCounts GPUCountColumns

	// Bottlenecks counts the GPU jobs that hit capacity on each metric.
	Bottlenecks BottleneckCounts

	// CPU jobs and their columns.
	CPU        []*JobRecord
	CPURunMin  *FloatColumn
	CPUWaitSec *FloatColumn
	CPUWaitPct *FloatColumn
	CPUHostCPU *FloatColumn

	// UserFolds holds one fold per distinct user of the GPU population,
	// ascending by user.
	UserFolds []UserFold

	// SeriesIDs is the sorted key set of the detailed-monitoring subset, a
	// deterministic iteration order over Dataset.Series.
	SeriesIDs []int64

	// TotalGPUHours is the GPU-hour sum over the analysis population,
	// accumulated in dataset order.
	TotalGPUHours float64
	DurationDays  float64

	series map[int64]*TimeSeries
}

// groupMetrics are the utilization metrics the grouped columns project:
// SM, memory bandwidth and memory size (Figs. 14 and 16). Fig. 5 groups
// the first numIfaceMetrics of them by interface.
var groupMetrics = [3]metrics.Metric{metrics.SMUtil, metrics.MemUtil, metrics.MemSize}

const numIfaceMetrics = 2

// CategoryColumns is one §VI life-cycle category's slice of the GPU
// population; its job count is RunMin.N().
type CategoryColumns struct {
	RunMin *FloatColumn
	// Mean[k] is the job-level mean of SM (k = 0), memory-bandwidth (1) and
	// memory-size (2) utilization.
	Mean [len(groupMetrics)]*FloatColumn
	// GPUHours is the category's GPU-hour sum, accumulated in dataset
	// order as TotalGPUHours is.
	GPUHours float64
}

// MultiGPUColumns holds Fig. 14's per-job statistics over the multi-GPU
// jobs that carry per-GPU digests.
type MultiGPUColumns struct {
	// Jobs counts every multi-GPU job, with or without per-GPU digests.
	Jobs int
	// CoVAll[k] and CoVActive[k] hold each job's CoV (%) of metric k's mean
	// across all its GPUs and across its active GPUs (0 for a job with one
	// active GPU); jobs whose CoV is undefined are left out.
	CoVAll, CoVActive [len(groupMetrics)]*FloatColumn
	// Considered counts the jobs with two or more per-GPU digests;
	// WithIdle and HalfIdle those with at least one, and at least half,
	// of their GPUs idle.
	Considered, WithIdle, HalfIdle int
}

// UserFold is one user's GPU jobs folded in append order: the per-user
// statistics behind §IV's concentration and Figs. 10–12 and 17. Each
// accumulator takes the user's values in the order a walk over the user's
// jobs would visit them, so a figure read from the fold is bit-identical to
// that walk.
type UserFold struct {
	User     int
	Jobs     int
	MaxGPUs  int     // the largest NumGPUs among the user's jobs
	GPUHours float64 // left-to-right sum
	// RunMin folds run minutes and Mean[k] the job-level mean of SM (k = 0),
	// memory-bandwidth (1) and memory-size (2) utilization. Each keeps the
	// left-to-right sum stats.Mean takes and the Welford state stats.CoV
	// takes (Streaming.Sum, Streaming.CoV).
	RunMin stats.Streaming
	Mean   [len(groupMetrics)]stats.Streaming
	// CatJobs[k] and CatGPUHours[k] are the job count and GPU-hour sum of
	// the user's jobs in §VI life-cycle category k.
	CatJobs     [NumCategories]int
	CatGPUHours [NumCategories]float64
}

// add folds one of the user's jobs, of GPU hours h and category cat.
func (u *UserFold) add(jp *JobRecord, h float64, cat Category) {
	u.Jobs++
	u.MaxGPUs = max(u.MaxGPUs, jp.NumGPUs)
	u.GPUHours += h
	u.RunMin.Add(jp.RunSec / 60)
	for k, m := range groupMetrics {
		u.Mean[k].Add(jp.GPU[m].Mean)
	}
	u.CatJobs[cat]++
	u.CatGPUHours[cat] += h
}

// GPUCountColumns is Fig. 13's fold of the GPU population by GPU count.
type GPUCountColumns struct {
	// Jobs[g] counts the jobs that used exactly g GPUs.
	Jobs map[int]int
	// HoursBySize[s] is the GPU-hour sum of §V size class s, and
	// MultiHours that of the jobs not using exactly one GPU, each
	// accumulated in dataset order as TotalGPUHours is.
	HoursBySize [NumSizeClasses]float64
	MultiHours  float64
}

// idleGPUMeanPct is the mean SM and memory-bandwidth utilization below
// which a GPU counts as idle for the whole job ("average utilization of
// close to zero for all resources").
const idleGPUMeanPct = 1.0

// BottleneckCounts are Figs. 7b/8's per-job hit counts over the GPU
// population. A job hits metric m when a GPU's recorded maximum of m
// reaches bottleneckThresholdPct.
type BottleneckCounts struct {
	// Single[m] counts the jobs that hit m; Pair[a][b] (a < b) those that
	// hit both a and b; AnyTwo those that hit two or more metrics.
	Single [metrics.NumMetrics]int
	Pair   [metrics.NumMetrics][metrics.NumMetrics]int
	AnyTwo int
}

// bottleneckThresholdPct: a job is bottlenecked on a metric when its
// recorded maximum reaches the capacity (the paper's definition); 99 %
// tolerates sampling discretization.
const bottleneckThresholdPct = 99

// BuildColumns projects d into columns in a single pass over d.Jobs (plus
// a counting pass that presizes the arrays). Prefer Dataset.Columns, which
// memoizes. The result aliases d.Jobs and d.Series.
func BuildColumns(d *Dataset) *Columns {
	var n projSizes
	for i := range d.Jobs {
		n.count(&d.Jobs[i])
	}
	p := newProjection(n)
	for i := range d.Jobs {
		p.add(&d.Jobs[i])
	}
	return p.columns(d.DurationDays, d.Series, func(_ int, vals []float64) *FloatColumn {
		return NewFloatColumn(vals)
	})
}

// Ids of projection's float arrays, one per FloatColumn of Columns.
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

// Bases of the per-metric and grouped column blocks.
const (
	sfMean0      = sfWaitSize0 + NumSizeClasses
	sfMax0       = sfMean0 + int(metrics.NumMetrics)
	sfCatRun0    = sfMax0 + int(metrics.NumMetrics)                  // + category
	sfCatMean0   = sfCatRun0 + int(NumCategories)                    // + category*len(groupMetrics) + k
	sfIface0     = sfCatMean0 + int(NumCategories)*len(groupMetrics) // + interface*numIfaceMetrics + k
	sfCoVAll0    = sfIface0 + int(NumInterfaces)*numIfaceMetrics     // + k
	sfCoVActive0 = sfCoVAll0 + len(groupMetrics)                     // + k
	numFloatCols = sfCoVActive0 + len(groupMetrics)
)

// projSizes are the array lengths a projection reaches over a known job
// sequence, counted in one pass so BuildColumns allocates each array once.
type projSizes struct {
	gpu, cpu int
	cat      [NumCategories]int
	iface    [NumInterfaces]int
	// multi counts the multi-GPU jobs with per-GPU digests, an upper bound
	// on each CoV array's length.
	multi int
}

// count adds one record to the sizes, with projection.add's filters.
func (n *projSizes) count(j *JobRecord) {
	switch {
	case !j.IsGPU():
		n.cpu++
	case j.RunSec >= MinGPUJobRunSec:
		n.gpu++
		n.cat[CategoryOf(j.Exit, j.Interface)]++
		if j.Interface >= 0 && j.Interface < NumInterfaces {
			n.iface[j.Interface]++
		}
		if j.NumGPUs >= 2 && len(j.PerGPU) >= 2 {
			n.multi++
		}
	}
}

// capacity returns the presized capacity of float array id.
func (n *projSizes) capacity(id int) int {
	switch {
	case id >= sfCPURunMin && id <= sfCPUHostCPU:
		return n.cpu
	case id >= sfWaitSize0 && id < sfMean0:
		return 0 // the size classes split the GPU population; they grow on demand
	case id >= sfCatRun0 && id < sfCatMean0:
		return n.cat[id-sfCatRun0]
	case id >= sfCatMean0 && id < sfIface0:
		return n.cat[(id-sfCatMean0)/len(groupMetrics)]
	case id >= sfIface0 && id < sfCoVAll0:
		return n.iface[(id-sfIface0)/numIfaceMetrics]
	case id >= sfCoVAll0:
		return n.multi
	}
	return n.gpu
}

// projection is the one row-to-column mapping behind both BuildColumns and
// SegStore: append-only arrays holding every per-job value Columns exposes,
// filled one record at a time in append order. Elements below an array's
// length are never rewritten and append only writes at or past it, so a
// full-slice-expression view vals[:n:n] is immutable forever — which is
// what lets a SegStore snapshot share the arrays with later appends.
type projection struct {
	f     [numFloatCols][]float64
	gpu   []*JobRecord
	multi []*JobRecord
	cpu   []*JobRecord
	// users holds one fold per user, ascending by user, and userIdx maps a
	// user to its fold's index. A new user shifts the folds after it, which
	// costs O(users) but happens once per user.
	users   []UserFold
	userIdx map[int]int
	// totalGPUHours, catGPUHours and gpuCounts' sums accumulate in append
	// order, the float sequence every figure's sequential scan folds.
	totalGPUHours float64
	catGPUHours   [NumCategories]float64
	gpuCounts     GPUCountColumns
	multiGPU      MultiGPUColumns // counters only; the CoV arrays live in f
	bottlenecks   BottleneckCounts
	// covVals and covAct are scratch for one job's per-GPU values.
	covVals, covAct []float64
}

// newProjection presizes the arrays to the lengths n counted.
func newProjection(n projSizes) *projection {
	p := &projection{
		gpu:       make([]*JobRecord, 0, n.gpu),
		cpu:       make([]*JobRecord, 0, n.cpu),
		userIdx:   make(map[int]int),
		gpuCounts: GPUCountColumns{Jobs: make(map[int]int)},
	}
	for id := range p.f {
		if c := n.capacity(id); c > 0 {
			p.f[id] = make([]float64, 0, c)
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
	p.gpu = append(p.gpu, jp)
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

	cat := int(CategoryOf(jp.Exit, jp.Interface))
	p.catGPUHours[cat] += h
	p.f[sfCatRun0+cat] = append(p.f[sfCatRun0+cat], jp.RunSec/60)
	for k, m := range groupMetrics {
		id := sfCatMean0 + cat*len(groupMetrics) + k
		p.f[id] = append(p.f[id], jp.GPU[m].Mean)
	}
	if jp.Interface >= 0 && jp.Interface < NumInterfaces {
		for k, m := range groupMetrics[:numIfaceMetrics] {
			id := sfIface0 + int(jp.Interface)*numIfaceMetrics + k
			p.f[id] = append(p.f[id], jp.GPU[m].Mean)
		}
	}
	if jp.NumGPUs >= 2 {
		p.multi = append(p.multi, jp)
		p.multiGPU.Jobs++
		p.addMultiGPU(jp)
	}
	p.addBottlenecks(jp)
	p.user(jp.User).add(jp, h, Category(cat))
	g := &p.gpuCounts
	g.Jobs[jp.NumGPUs]++
	g.HoursBySize[SizeClass(jp.NumGPUs)] += h
	if jp.NumGPUs != 1 {
		g.MultiHours += h
	}
	return true
}

// user returns u's fold, inserting an empty one in user order on u's first
// job.
func (p *projection) user(u int) *UserFold {
	if k, ok := p.userIdx[u]; ok {
		return &p.users[k]
	}
	k := sort.Search(len(p.users), func(i int) bool { return p.users[i].User > u })
	p.users = slices.Insert(p.users, k, UserFold{User: u})
	for i := k; i < len(p.users); i++ {
		p.userIdx[p.users[i].User] = i
	}
	return &p.users[k]
}

// addMultiGPU folds one multi-GPU job's idle-GPU counts and cross-GPU CoVs
// into the Fig. 14 columns. Jobs without per-GPU digests (the CSV path
// flattens them) carry no cross-GPU information and are skipped.
func (p *projection) addMultiGPU(jp *JobRecord) {
	if len(jp.PerGPU) < 2 {
		return
	}
	mg := &p.multiGPU
	mg.Considered++
	idle := 0
	for i := range jp.PerGPU {
		if g := &jp.PerGPU[i]; g[metrics.SMUtil].Mean < idleGPUMeanPct && g[metrics.MemUtil].Mean < idleGPUMeanPct {
			idle++
		}
	}
	if idle > 0 {
		mg.WithIdle++
	}
	if idle*2 >= len(jp.PerGPU) {
		mg.HalfIdle++
	}
	for k, m := range groupMetrics {
		vals, act := p.covVals[:0], p.covAct[:0]
		for i := range jp.PerGPU {
			g := &jp.PerGPU[i]
			vals = append(vals, g[m].Mean)
			if g[metrics.SMUtil].Mean >= idleGPUMeanPct || g[metrics.MemUtil].Mean >= idleGPUMeanPct {
				act = append(act, g[m].Mean)
			}
		}
		p.covVals, p.covAct = vals, act
		if cov := stats.CoV(vals); !math.IsNaN(cov) {
			p.f[sfCoVAll0+k] = append(p.f[sfCoVAll0+k], cov)
		}
		if len(act) >= 2 {
			if cov := stats.CoV(act); !math.IsNaN(cov) {
				p.f[sfCoVActive0+k] = append(p.f[sfCoVActive0+k], cov)
			}
		} else if len(act) == 1 {
			// One active GPU: no cross-GPU variability among active GPUs.
			p.f[sfCoVActive0+k] = append(p.f[sfCoVActive0+k], 0)
		}
	}
}

// addBottlenecks counts which of metrics.BottleneckMetrics the job hit:
// a GPU's recorded maximum at capacity, read from the averaged digest when
// the per-GPU digests are absent.
func (p *projection) addBottlenecks(jp *JobRecord) {
	var hit uint // bit m set: metric m hit capacity
	if len(jp.PerGPU) == 0 {
		hit = capacityHits(&jp.GPU)
	}
	for i := range jp.PerGPU {
		hit |= capacityHits(&jp.PerGPU[i])
	}
	if hit == 0 {
		return
	}
	b := &p.bottlenecks
	for lo := range b.Single {
		if hit&(1<<lo) == 0 {
			continue
		}
		b.Single[lo]++
		for hi := lo + 1; hi < len(b.Single); hi++ {
			if hit&(1<<hi) != 0 {
				b.Pair[lo][hi]++
			}
		}
	}
	if bits.OnesCount(hit) >= 2 {
		b.AnyTwo++
	}
}

// capacityHits returns the set of metrics.BottleneckMetrics whose recorded
// maximum in d reaches capacity, as a bit mask indexed by metric.
func capacityHits(d *metrics.MetricSummaries) uint {
	var hit uint
	for _, m := range metrics.BottleneckMetrics {
		if d[m].Max >= bottleneckThresholdPct {
			hit |= 1 << m
		}
	}
	return hit
}

// columns assembles a Columns over everything added so far from
// full-slice-expression views of the arrays, so later adds never show
// through, and copies of the folds, O(users + GPU counts). col wraps each
// float array view (given its sf* id) as a column; series is adopted as the
// Columns' series map.
func (p *projection) columns(durationDays float64, series map[int64]*TimeSeries, col func(id int, vals []float64) *FloatColumn) *Columns {
	view := func(id int) *FloatColumn {
		n := len(p.f[id])
		return col(id, p.f[id][:n:n])
	}
	gpuCounts := p.gpuCounts
	gpuCounts.Jobs = maps.Clone(p.gpuCounts.Jobs)
	c := &Columns{
		GPU:           p.gpu[:len(p.gpu):len(p.gpu)],
		GPUJobs:       len(p.gpu),
		RunMin:        view(sfRunMin),
		WaitSec:       view(sfWaitSec),
		WaitPct:       view(sfWaitPct),
		GPUHours:      view(sfGPUHours),
		HostCPU:       view(sfHostCPU),
		Multi:         p.multi[:len(p.multi):len(p.multi)],
		MultiGPU:      p.multiGPU,
		GPUCounts:     gpuCounts,
		Bottlenecks:   p.bottlenecks,
		CPU:           p.cpu[:len(p.cpu):len(p.cpu)],
		CPURunMin:     view(sfCPURunMin),
		CPUWaitSec:    view(sfCPUWaitSec),
		CPUWaitPct:    view(sfCPUWaitPct),
		CPUHostCPU:    view(sfCPUHostCPU),
		UserFolds:     slices.Clone(p.users),
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
	for cat := range c.ByCategory {
		g := &c.ByCategory[cat]
		g.RunMin = view(sfCatRun0 + cat)
		for k := range g.Mean {
			g.Mean[k] = view(sfCatMean0 + cat*len(groupMetrics) + k)
		}
		g.GPUHours = p.catGPUHours[cat]
	}
	for i := range c.IfaceMean {
		for k := range c.IfaceMean[i] {
			c.IfaceMean[i][k] = view(sfIface0 + i*numIfaceMetrics + k)
		}
	}
	for k := range groupMetrics {
		c.MultiGPU.CoVAll[k] = view(sfCoVAll0 + k)
		c.MultiGPU.CoVActive[k] = view(sfCoVActive0 + k)
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
