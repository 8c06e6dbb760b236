package trace

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// This file is the streaming counterpart of columns.go: an append-only
// columnar store for the always-on world where jobs arrive while figures are
// being answered (Dataset + BuildColumns serve the batch world, where the
// population is frozen before analysis).
//
// Both worlds project records through the same projection (columns.go), so
// the per-job column layout exists once. A SegStore appends each record into
// its projection as it arrives; a Snapshot is the projection's Columns over
// full-slice-expression views of the append-only arrays, O(1) per column and
// immutable as the store keeps appending. It is byte-identical to what
// BuildColumns would produce over the same job sequence, for ANY seal or
// compaction schedule:
//
//   - dataset-order vectors are the same physical elements, so every
//     sequential (Welford, sum) figure scan folds the identical float
//     sequence;
//   - sorted views merge the cached sorted run of the sealed prefix with a
//     sort of the small tail, and merging ascending runs of a multiset
//     yields the same ascending array as sorting the whole — without
//     re-sorting sealed data ever again;
//   - the per-user and per-GPU-count folds and the grouped columns'
//     counters accumulate job by job in append order, exactly as
//     BuildColumns accumulates them, and a snapshot copies them.
//
// Sealing freezes the tail: the appender that sealed it sorts its run off
// the lock, the next snapshot folds it into the sealed-prefix merge cascade
// (sealedMerge), and a segment records only its job bounds and a mergeable
// SegSummary digest. The digests answer live summary queries in
// O(segments); they merge in segment-index order, so they are
// deterministic for a given seal/compaction schedule but — unlike the
// figures — not invariant across schedules (float merge order differs).

// jobChunkSize is the slab size of the job arena. Chunks are allocated at
// full capacity and never grow, so *JobRecord pointers handed to column
// views stay valid across appends (a plain growing slice would move them).
const jobChunkSize = 1024

// DefaultSegmentJobs is the seal threshold when SegConfig.SegmentJobs is 0.
const DefaultSegmentJobs = 4096

// SegConfig parameterizes a SegStore.
type SegConfig struct {
	// DurationDays is the observation window recorded on snapshots.
	DurationDays float64
	// SegmentJobs seals the tail into an immutable segment every time it
	// reaches this many jobs; 0 means DefaultSegmentJobs, negative disables
	// automatic sealing (SealTail only).
	SegmentJobs int
	// MaxSegments, when positive, bounds the sealed-segment count: when a
	// seal pushes past it, adjacent segments are pairwise compacted
	// (halving the count), keeping segment metadata and Summary's
	// O(segments) digest fold O(MaxSegments). Queries read the sealed-prefix
	// merge cascade whatever the count, so it does not affect figures.
	MaxSegments int
}

// SegSummary is one segment's (or the whole store's) mergeable digest:
// counts plus streaming moments of the headline columns. It merges via
// stats.Streaming's parallel-variance merge; merge in segment-index order
// for deterministic results.
type SegSummary struct {
	Jobs     int // all appended jobs, before any filter
	GPUJobs  int // analysis population (GPU, RunSec >= MinGPUJobRunSec)
	CPUJobs  int
	MultiGPU int

	GPUHours stats.Streaming // per-job GPU hours over the GPU population
	WaitSec  stats.Streaming
	RunMin   stats.Streaming
	// MeanUtil[m] aggregates the per-job mean of GPU metric m.
	MeanUtil [metrics.NumMetrics]stats.Streaming
}

// add folds one analysis-population GPU job (resp. CPU job) into the digest.
func (s *SegSummary) addGPU(j *JobRecord, hours float64) {
	s.GPUJobs++
	if j.NumGPUs >= 2 {
		s.MultiGPU++
	}
	s.GPUHours.Add(hours)
	s.WaitSec.Add(j.WaitSec)
	s.RunMin.Add(j.RunSec / 60)
	for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
		s.MeanUtil[m].Add(j.GPU[m].Mean)
	}
}

// Merge folds o after s. Call in segment-index order.
func (s *SegSummary) Merge(o *SegSummary) {
	s.Jobs += o.Jobs
	s.GPUJobs += o.GPUJobs
	s.CPUJobs += o.CPUJobs
	s.MultiGPU += o.MultiGPU
	s.GPUHours.Merge(&o.GPUHours)
	s.WaitSec.Merge(&o.WaitSec)
	s.RunMin.Merge(&o.RunMin)
	for m := range s.MeanUtil {
		s.MeanUtil[m].Merge(&o.MeanUtil[m])
	}
}

// segment is one immutable sealed window of the store: its job bounds and
// digest. Its column data lives in the store's projection and its sorted
// run in the sealed-prefix merge cascade.
type segment struct {
	startJob, endJob int // [start,end) in appended-job order
	agg              SegSummary
}

// SegStore is the append-only segmented columnar store. The zero value is
// not usable; construct with NewSegStore. All methods are safe for
// concurrent use; reads returned by Snapshot are immutable and may be
// consumed without further locking, concurrently with appends.
type SegStore struct {
	noCopy noCopy

	mu  sync.Mutex
	cfg SegConfig

	// proj holds the whole-store columns. Like every mutable field below
	// it is guarded by mu: unlocked helpers carry the *Locked name suffix
	// and run only with mu held (enforced by simlint's lockguard).
	proj *projection // guarded by mu

	series map[int64]*TimeSeries     // guarded by mu
	staged map[int64]stagedTelemetry // guarded by mu

	chunks [][]JobRecord // guarded by mu
	nJobs  int           // guarded by mu

	sealed  []*segment // guarded by mu
	tailJob int        // guarded by mu
	tailAgg SegSummary // guarded by mu

	// sealedMerge[c] is a prefix of column c, proj.f[c][:N()], as a lazily
	// sorted view (nil before the first seal), and sealedRuns[c] the runs
	// of the segments sealed after it, through proj.f[c][:sealedEnd[c]].
	// A seal only adds its run; the next Snapshot folds the waiting runs
	// into a new sealedMerge that merges them with each other and then
	// with the old prefix once, on first use. Compaction reshapes the
	// segments but not the multiset, so the cascade survives it. Queries
	// therefore pay one tail sort plus one pass over the prefix per
	// column, however many segments were sealed since the last query.
	sealedMerge [numFloatCols]*FloatColumn   // guarded by mu
	sealedRuns  [numFloatCols][]*FloatColumn // guarded by mu
	sealedEnd   [numFloatCols]int            // guarded by mu
	// unsorted holds the runs sealed since an appender last took them to
	// sort (sortRuns).
	unsorted []*FloatColumn // guarded by mu

	gen  uint64   // guarded by mu
	snap *SegView // guarded by mu
}

// stagedTelemetry is monitoring-epilog output parked until the matching
// scheduler-side record arrives (the §II join on job ID).
type stagedTelemetry struct {
	perGPU []metrics.MetricSummaries
	series *TimeSeries
}

// SegView is an immutable snapshot of the store: a fully functional Columns
// over everything appended before the snapshot, plus the segment geometry
// behind it. Safe for concurrent use and never invalidated — a view taken
// before an append simply does not see it.
type SegView struct {
	// Cols is the stitched columnar projection; every Columns consumer
	// (core figures, engine samples) works on it unchanged.
	Cols *Columns
	// NJobs is the appended-job count covered by the view.
	NJobs int
	// Segments is the sealed-segment count at snapshot time; TailJobs is
	// the not-yet-sealed remainder.
	Segments int
	TailJobs int
	// Gen increases with every mutation; equal Gens mean identical views.
	Gen uint64
}

// NewSegStore creates an empty store.
func NewSegStore(cfg SegConfig) *SegStore {
	if cfg.SegmentJobs == 0 {
		cfg.SegmentJobs = DefaultSegmentJobs
	}
	return &SegStore{
		cfg:    cfg,
		proj:   newProjection(projSizes{}),
		series: make(map[int64]*TimeSeries),
		staged: make(map[int64]stagedTelemetry),
	}
}

// AppendBatch adds records in order, sealing as thresholds are crossed.
func (st *SegStore) AppendBatch(jobs []JobRecord) {
	sortRuns(st.appendBatch(jobs))
}

func (st *SegStore) appendBatch(jobs []JobRecord) []*FloatColumn {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range jobs {
		st.appendLocked(jobs[i])
		st.maybeSealLocked()
	}
	return st.takeUnsortedLocked()
}

// takeUnsortedLocked hands the runs sealed since the last call to an
// appender, to sort once it has released mu.
func (st *SegStore) takeUnsortedLocked() []*FloatColumn {
	runs := st.unsorted
	st.unsorted = nil
	return runs
}

// sortRuns sorts newly sealed runs. Each appender sorts what its batch
// sealed, after releasing the store lock: ingest pays for sorting its own
// data, off the lock, rather than the next query paying for sorting
// everything sealed since the query before it — which would make a query's
// cost grow with the ingest rate.
func sortRuns(runs []*FloatColumn) {
	for _, r := range runs {
		r.Sorted()
	}
}

// AppendDataset streams a whole dataset's jobs and series into the store.
func (st *SegStore) AppendDataset(ds *Dataset) {
	// Unbounded append cannot fail; the error is structurally impossible.
	if err := st.AppendDatasetMax(ds, 0); err != nil {
		panic(err)
	}
}

// CapacityError reports an ingest batch rejected because it would push the
// store past a job bound. The admission check and the append happen under
// one lock acquisition, so concurrent batches cannot both pass the check
// and jointly overshoot the bound.
type CapacityError struct {
	Stored, Batch, Max int
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("trace: store at %d jobs, batch of %d exceeds bound %d",
		e.Stored, e.Batch, e.Max)
}

// AppendDatasetMax is AppendDataset with an atomic admission bound: when
// maxJobs is positive and the batch would push the stored-job count past it,
// nothing is appended and a *CapacityError is returned. Reserve-then-append
// is a single critical section — the check cannot race another batch's
// append (the -max-jobs TOCTOU simcloudd shipped with).
func (st *SegStore) AppendDatasetMax(ds *Dataset, maxJobs int) error {
	sealed, err := st.appendDataset(ds, maxJobs)
	sortRuns(sealed)
	return err
}

func (st *SegStore) appendDataset(ds *Dataset, maxJobs int) ([]*FloatColumn, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if maxJobs > 0 && st.nJobs+len(ds.Jobs) > maxJobs {
		return nil, &CapacityError{Stored: st.nJobs, Batch: len(ds.Jobs), Max: maxJobs}
	}
	for i := range ds.Jobs {
		st.appendLocked(ds.Jobs[i])
		st.maybeSealLocked()
	}
	for _, id := range sortedSeriesKeys(ds.Series) {
		st.series[id] = ds.Series[id]
	}
	st.gen++
	st.snap = nil
	return st.takeUnsortedLocked(), nil
}

// StageTelemetry parks monitoring-epilog output (per-GPU digests and the
// optional retained series) for a job whose scheduler-side record has not
// arrived yet. The next append of that job ID joins it: a record with no
// PerGPU adopts the staged digests (recomputing the averaged GPU summary),
// and the staged series is attached. This is how the monitoring pipeline
// streams §II joins into the store as epilogs fire.
func (st *SegStore) StageTelemetry(jobID int64, perGPU []metrics.MetricSummaries, ts *TimeSeries) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.staged[jobID] = stagedTelemetry{perGPU: perGPU, series: ts}
}

// StagedJobs returns the number of telemetry records awaiting their join.
func (st *SegStore) StagedJobs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.staged)
}

// appendLocked joins any staged telemetry, arena-allocates the record and
// projects it into the columns through the same projection BuildColumns
// uses, so snapshots are bit-identical to the batch path.
func (st *SegStore) appendLocked(j JobRecord) {
	if tel, ok := st.staged[j.JobID]; ok {
		delete(st.staged, j.JobID)
		if j.IsGPU() && j.PerGPU == nil && tel.perGPU != nil {
			j.PerGPU = tel.perGPU
			j.FinalizeGPUSummary()
		}
		if tel.series != nil {
			st.series[j.JobID] = tel.series
		}
	}

	// Arena-allocate the record so the pointer survives future appends.
	if n := len(st.chunks); n == 0 || len(st.chunks[n-1]) == cap(st.chunks[n-1]) {
		st.chunks = append(st.chunks, make([]JobRecord, 0, jobChunkSize))
	}
	chunk := &st.chunks[len(st.chunks)-1]
	*chunk = append(*chunk, j)
	jp := &(*chunk)[len(*chunk)-1]

	st.nJobs++
	st.gen++
	st.snap = nil
	st.tailAgg.Jobs++
	switch {
	case st.proj.add(jp):
		st.tailAgg.addGPU(jp, jp.GPUHours())
	case !jp.IsGPU():
		st.tailAgg.CPUJobs++
	}
}

// maybeSealLocked seals when the tail crosses the configured size.
func (st *SegStore) maybeSealLocked() {
	if st.cfg.SegmentJobs > 0 && st.nJobs-st.tailJob >= st.cfg.SegmentJobs {
		st.sealLocked()
	}
}

// SealTail seals the current tail into an immutable segment (a no-op for an
// empty tail). Sealing never changes query results — it only freezes the
// region so its sorted run is cached once in the sealed-prefix merge and
// reused by every later snapshot instead of being re-sorted.
func (st *SegStore) SealTail() {
	st.mu.Lock()
	st.sealLocked()
	sealed := st.takeUnsortedLocked()
	st.mu.Unlock()
	sortRuns(sealed)
}

func (st *SegStore) sealLocked() {
	if st.nJobs == st.tailJob {
		return
	}
	st.sealSegmentLocked(st.tailAgg)
	if st.cfg.MaxSegments > 0 && len(st.sealed) > st.cfg.MaxSegments {
		st.compactLocked()
	}
}

// sealSegmentLocked freezes the tail into a segment carrying agg as its
// digest. The live path passes the accumulated tail digest; snapshot restore
// passes the recorded one, which may be a Merge-shaped aggregate from a
// compaction the original store performed (re-folding the jobs would differ
// in final ulps — the recorded floats are the ground truth).
func (st *SegStore) sealSegmentLocked(agg SegSummary) {
	st.sealed = append(st.sealed, &segment{startJob: st.tailJob, endJob: st.nJobs, agg: agg})
	st.tailJob = st.nJobs
	st.tailAgg = SegSummary{}
	for c, vals := range st.proj.f {
		end := len(vals)
		run := NewFloatColumn(vals[st.sealedEnd[c]:end:end])
		st.sealedRuns[c] = append(st.sealedRuns[c], run)
		st.unsorted = append(st.unsorted, run)
		st.sealedEnd[c] = end
	}
}

// foldSealedRunsLocked folds each column's waiting sealed runs into its
// sealed-prefix merge. The new merge sorts and merges the runs among
// themselves, then merges the result with the old prefix: one pass over
// the prefix however many runs wait, where folding each seal's run in
// turn would pass over it once per run. On ties the prefix comes first,
// then the runs in seal order, so the merged array is the one run-by-run
// merging would give. The merge is the column's single run, so once it
// exists the column holds neither input: each level keeps one sorted copy
// of the prefix, not two.
func (st *SegStore) foldSealedRunsLocked() {
	for c, runs := range st.sealedRuns {
		prev := st.sealedMerge[c]
		switch {
		case len(runs) == 0:
			continue
		case prev == nil && len(runs) == 1:
			st.sealedMerge[c] = runs[0]
		default:
			end := st.sealedEnd[c]
			st.sealedMerge[c] = newMergeSortedColumn(st.proj.f[c][:end:end], func() [][]float64 {
				sorted := make([][]float64, len(runs))
				for i, r := range runs {
					sorted[i] = r.Sorted()
				}
				merged := mergeSortedRuns(sorted)
				if prev != nil {
					merged = mergeSortedRuns([][]float64{prev.Sorted(), merged})
				}
				return [][]float64{merged}
			})
		}
		st.sealedRuns[c] = nil
	}
}

// Compact pairwise-merges adjacent sealed segments, halving the segment
// count: the segment metadata and Summary's O(segments) digest fold stay
// bounded. Figure results are unaffected (queries read the sealed-prefix
// merge, which compaction leaves alone; the property test pins this);
// SegSummary moments change merge association and so may differ in final
// ulps from an unsealed run.
func (st *SegStore) Compact() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.compactLocked()
}

func (st *SegStore) compactLocked() {
	if len(st.sealed) < 2 {
		return
	}
	merged := make([]*segment, 0, (len(st.sealed)+1)/2)
	for i := 0; i+1 < len(st.sealed); i += 2 {
		merged = append(merged, mergeSegments(st.sealed[i], st.sealed[i+1]))
	}
	if len(st.sealed)%2 == 1 {
		merged = append(merged, st.sealed[len(st.sealed)-1])
	}
	st.sealed = merged
	st.gen++
	st.snap = nil
}

// mergeSegments combines two adjacent segments into one: the union of their
// bounds and a's digest merged with b's.
func mergeSegments(a, b *segment) *segment {
	out := &segment{startJob: a.startJob, endJob: b.endJob, agg: a.agg}
	out.agg.Merge(&b.agg)
	return out
}

// Summary merges the per-segment digests (in segment-index order) with the
// tail digest: the O(segments) live answer for dashboards. Deterministic
// for a given seal/compaction schedule.
func (st *SegStore) Summary() SegSummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out SegSummary
	for _, seg := range st.sealed {
		out.Merge(&seg.agg)
	}
	out.Merge(&st.tailAgg)
	return out
}

// Len returns the number of appended jobs.
func (st *SegStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nJobs
}

// Segments returns the sealed-segment count.
func (st *SegStore) Segments() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sealed)
}

// TailJobs returns the number of jobs appended since the last seal — the
// mutable tail the backpressure bound watches. O(1); no view is built.
func (st *SegStore) TailJobs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n := len(st.sealed); n > 0 {
		return st.nJobs - st.sealed[n-1].endJob
	}
	return st.nJobs
}

// Snapshot returns an immutable view of everything appended so far. The
// snapshot is memoized per generation: queries between appends share one
// view (and therefore one set of merged sorted runs). Building a fresh view
// is O(users + series + columns) — no job data is copied, no sort runs.
func (st *SegStore) Snapshot() *SegView {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.snap != nil {
		return st.snap
	}
	st.foldSealedRunsLocked()
	c := st.proj.columns(st.cfg.DurationDays, maps.Clone(st.series), func(id int, vals []float64) *FloatColumn {
		sealed := st.sealedMerge[id]
		if sealed == nil {
			// Nothing sealed: a plain sort-on-demand view of the tail
			// (== the whole store).
			return NewFloatColumn(vals)
		}
		tail := vals[sealed.N():]
		return newMergeSortedColumn(vals, func() [][]float64 {
			if len(tail) == 0 {
				return [][]float64{sealed.Sorted()}
			}
			return [][]float64{sealed.Sorted(), sortDropNaN(tail)}
		})
	})
	st.snap = &SegView{
		Cols:     c,
		NJobs:    st.nJobs,
		Segments: len(st.sealed),
		TailJobs: st.nJobs - st.tailJob,
		Gen:      st.gen,
	}
	return st.snap
}
