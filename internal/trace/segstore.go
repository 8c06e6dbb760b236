package trace

import (
	"fmt"
	"maps"
	"slices"
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
// BuildColumns would produce over the same job sequence, for ANY seal
// schedule:
//
//   - dataset-order vectors are the same physical elements, so every
//     sequential (Welford, sum) figure scan folds the identical float
//     sequence;
//   - sorted views merge a column's sorted sealed prefix with the merge of
//     the runs sealed after it and a sort of the small tail, and merging
//     ascending runs of a multiset yields the same ascending array as
//     sorting the whole — without re-sorting sealed data ever again;
//   - the per-user and per-GPU-count folds, the grouped columns' counters
//     and the Summary digest accumulate job by job in append order, exactly
//     as BuildColumns accumulates them, and a snapshot copies them.
//
// Sealing freezes the tail into a run. What a seal leaves to do is settle
// work, and the appender does it (Settle) after releasing the lock: it
// sorts the new runs, and it folds a column's waiting runs into the
// column's sorted prefix once they reach 1/foldRatio of it. The prefix
// thus grows geometrically, so ingest merges each value into a prefix
// about foldRatio+1 times on average, whatever the store size, and a query
// merges at most about n/(foldRatio+1) sealed values plus the tail, where
// folding at the query would merge all n. A seal changes no answer —
// figures and Summary are functions of the job sequence alone — so where a
// store sealed or folded is a performance detail that neither the WAL nor
// a snapshot records.

// jobChunkSize is the slab size of the job arena. Chunks are allocated at
// full capacity and never grow, so *JobRecord pointers handed to column
// views stay valid across appends (a plain growing slice would move them).
const jobChunkSize = 1024

// foldRatio is K of the sealed-prefix fold rule: a column's waiting sealed
// runs are folded into its sorted prefix once they hold 1/K as many values
// as the prefix. Smaller K folds more often (ingest merges each value about
// K+1 times); larger K leaves more for a query to merge (up to n/(K+1)
// values). K = 4 was measured best on the ingest-query benchmark
// (EXPERIMENTS.md, "Geometric sealed-prefix fold").
const foldRatio = 4

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
	// MaxSegments is ignored. It is kept only so that existing command
	// lines (simcloudd -max-segments) and the benchmark harness still parse.
	MaxSegments int
}

// SegSummary is the store's live digest: counts plus streaming moments of
// the headline columns, folded job by job in append order, so it depends on
// the job sequence alone.
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

// addGPU folds one analysis-population GPU job into the digest.
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

	// sum is the Summary digest, folded at every append.
	sum SegSummary // guarded by mu

	seals   int // guarded by mu; sealed-segment count
	tailJob int // guarded by mu; jobs appended before the last seal

	// Each column c keeps prefix[c], the ascending NaN-free values of
	// proj.f[c][:prefixEnd[c]], and sealedRuns[c], the runs sealed after
	// it, through proj.f[c][:sealedEnd[c]]. A seal only adds its run;
	// Settle folds the waiting runs into a new prefix once they reach
	// 1/foldRatio of it, merging the runs with each other and then with the
	// old prefix once. folding[c] marks a fold taken by Settle and not yet
	// published; the prefix and runs a snapshot captured stay valid, since
	// a fold replaces them and never writes into them.
	prefix     [numFloatCols][]float64      // guarded by mu
	prefixEnd  [numFloatCols]int            // guarded by mu
	sealedRuns [numFloatCols][]*FloatColumn // guarded by mu
	sealedEnd  [numFloatCols]int            // guarded by mu
	folding    [numFloatCols]bool           // guarded by mu
	// unsorted holds the runs sealed since Settle last took them to sort.
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
// over everything appended before the snapshot, plus the seal count and
// tail size behind it. Safe for concurrent use and never invalidated — a
// view taken before an append simply does not see it.
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

// AppendBatch adds records in order, sealing as thresholds are crossed,
// then settles what its seals left to do (Settle).
func (st *SegStore) AppendBatch(jobs []JobRecord) {
	st.appendBatch(jobs)
	st.Settle()
}

func (st *SegStore) appendBatch(jobs []JobRecord) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range jobs {
		st.appendLocked(jobs[i])
		st.maybeSealLocked()
	}
}

// AppendDataset streams a whole dataset's jobs and series into the store.
// Like AppendDatasetMax it leaves the settle work to Settle.
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
//
// It does not settle: the runs it seals wait, unsorted, for the next
// Settle, so a caller that appends under a lock of its own can settle
// after releasing it. Answers never depend on when Settle runs.
func (st *SegStore) AppendDatasetMax(ds *Dataset, maxJobs int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if maxJobs > 0 && st.nJobs+len(ds.Jobs) > maxJobs {
		return &CapacityError{Stored: st.nJobs, Batch: len(ds.Jobs), Max: maxJobs}
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
	return nil
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
	st.sum.Jobs++
	switch {
	case st.proj.add(jp):
		st.sum.addGPU(jp, jp.GPUHours())
	case !jp.IsGPU():
		st.sum.CPUJobs++
	}
}

// maybeSealLocked seals when the tail crosses the configured size.
func (st *SegStore) maybeSealLocked() {
	if st.cfg.SegmentJobs > 0 && st.nJobs-st.tailJob >= st.cfg.SegmentJobs {
		st.sealLocked()
	}
}

// SealTail seals the current tail into an immutable segment (a no-op for an
// empty tail), then settles. Sealing never changes query results — it only
// freezes the region so its sorted run is merged into the column's sorted
// prefix and reused by every later snapshot instead of being re-sorted.
func (st *SegStore) SealTail() {
	st.mu.Lock()
	st.sealLocked()
	st.mu.Unlock()
	st.Settle()
}

// sealLocked freezes the tail: it queues each column's run since the last
// seal for sorting and for a later fold into the column's prefix. The
// memoized view goes, because it reports the seal count and tail size.
func (st *SegStore) sealLocked() {
	if st.nJobs == st.tailJob {
		return
	}
	st.seals++
	st.tailJob = st.nJobs
	for c, vals := range st.proj.f {
		end := len(vals)
		if end == st.sealedEnd[c] {
			continue
		}
		run := NewFloatColumn(vals[st.sealedEnd[c]:end:end])
		st.sealedRuns[c] = append(st.sealedRuns[c], run)
		st.unsorted = append(st.unsorted, run)
		st.sealedEnd[c] = end
	}
	st.gen++
	st.snap = nil
}

// Settle does the work seals leave, with the store lock released: it sorts
// the runs sealed since the last Settle, and folds every column whose
// waiting runs hold at least 1/foldRatio as many values as its prefix into
// a new prefix, which it publishes under the lock. Snapshots never wait on
// a fold: until it is published they read the old prefix and the runs.
// Concurrent calls split the work; a column another call is folding is
// left to that call, which folds again if more runs arrived meanwhile.
// Answers never depend on when, or whether, Settle runs.
func (st *SegStore) Settle() {
	for {
		w := st.takeSettle()
		if len(w.runs) == 0 && len(w.folds) == 0 {
			return
		}
		st.finishSettle(w)
	}
}

// settleWork is what one Settle round does: sort the newly sealed runs and
// merge the folds it claimed.
type settleWork struct {
	runs  []*FloatColumn
	folds []prefixFold
}

// prefixFold is one column's fold: the prefix and the waiting runs it
// merges, captured under the lock, and the merged result.
type prefixFold struct {
	col    int
	end    int // sealedEnd of the last run folded
	prefix []float64
	runs   []*FloatColumn
	merged []float64
}

// takeSettle claims the runs sealed since the last round and the folds of
// the columns that are due and not already being folded.
func (st *SegStore) takeSettle() settleWork {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := settleWork{runs: st.unsorted}
	st.unsorted = nil
	for c, runs := range st.sealedRuns {
		if len(runs) == 0 || st.folding[c] || foldRatio*(st.sealedEnd[c]-st.prefixEnd[c]) < st.prefixEnd[c] {
			continue
		}
		st.folding[c] = true
		w.folds = append(w.folds, prefixFold{col: c, end: st.sealedEnd[c], prefix: st.prefix[c], runs: runs[:len(runs):len(runs)]})
	}
	return w
}

// finishSettle does a claimed round's sorts and merges with the lock
// released, then publishes the new prefixes under it. Runs sealed while a
// fold ran stay waiting; the slice of the remaining runs is a fresh one,
// so the runs a snapshot captured are never overwritten.
func (st *SegStore) finishSettle(w settleWork) {
	for _, r := range w.runs {
		r.Sorted()
	}
	for i := range w.folds {
		w.folds[i].merge()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, f := range w.folds {
		st.prefix[f.col] = f.merged
		st.prefixEnd[f.col] = f.end
		st.sealedRuns[f.col] = slices.Clone(st.sealedRuns[f.col][len(f.runs):])
		st.folding[f.col] = false
	}
}

// merge merges the fold's runs with each other, then the result with the
// prefix: one pass over the prefix however many runs wait. On ties the
// prefix comes first, then the runs in seal order.
func (f *prefixFold) merge() {
	sorted := make([][]float64, len(f.runs))
	for i, r := range f.runs {
		sorted[i] = r.Sorted()
	}
	f.merged = stats.MergeRuns([][]float64{f.prefix, stats.MergeRuns(sorted)})
}

// Summary returns the store's digest, folded job by job in append order:
// O(1), and the same for any seal schedule and after a restore.
func (st *SegStore) Summary() SegSummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sum
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
	return st.seals
}

// TailJobs returns the number of jobs appended since the last seal — the
// mutable tail the backpressure bound watches. O(1); no view is built.
func (st *SegStore) TailJobs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nJobs - st.tailJob
}

// Snapshot returns an immutable view of everything appended so far. The
// snapshot is memoized per generation: queries between appends share one
// view (and therefore one set of merged sorted runs). Building a fresh view
// is O(users + series + columns) — no job data is copied, no sort runs.
// Each column's view has two sorted runs: the sealed prefix, and the merge
// of the runs waiting to be folded with the sorted tail, built on first use.
func (st *SegStore) Snapshot() *SegView {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.snap != nil {
		return st.snap
	}
	c := st.proj.columns(st.cfg.DurationDays, maps.Clone(st.series), func(id int, vals []float64) *FloatColumn {
		runs := st.sealedRuns[id]
		if st.prefixEnd[id] == 0 && len(runs) == 0 {
			// Nothing sealed: a plain sort-on-demand view of the tail
			// (== the whole store).
			return NewFloatColumn(vals)
		}
		prefix, runs, tail := st.prefix[id], runs[:len(runs):len(runs)], vals[st.sealedEnd[id]:]
		return newMergeSortedColumn(vals, func() [][]float64 {
			rest := make([][]float64, 0, len(runs)+1)
			for _, r := range runs {
				rest = append(rest, r.Sorted())
			}
			if len(tail) > 0 {
				rest = append(rest, sortDropNaN(tail))
			}
			return [][]float64{prefix, stats.MergeRuns(rest)}
		})
	})
	st.snap = &SegView{
		Cols:     c,
		NJobs:    st.nJobs,
		Segments: st.seals,
		TailJobs: st.nJobs - st.tailJob,
		Gen:      st.gen,
	}
	return st.snap
}
