package trace

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// This file is the snapshot side of the durability layer (internal/durable):
// an exact export of a SegStore's logical state and a restore that rebuilds
// a store whose every future query is byte-identical to the original's.
//
// The contract is stronger than "same jobs": /v1/summary merges per-segment
// streaming moments in segment order, so the recovered store must reproduce
// the exact segment geometry AND each segment's digest floats verbatim —
// re-folding the jobs would re-associate the Welford merges a compaction
// performed and drift by ulps. Figures, by contrast, depend only on append
// order, which the job list preserves. Restore therefore re-appends the
// jobs (rebuilding every column bit-identically) while cutting segments at
// the recorded boundaries with the recorded aggregates.

// SegSummaryState is the wire form of a SegSummary: counts plus the exact
// internal state of every streaming accumulator.
type SegSummaryState struct {
	Jobs     int `json:"jobs"`
	GPUJobs  int `json:"gpu_jobs"`
	CPUJobs  int `json:"cpu_jobs"`
	MultiGPU int `json:"multi_gpu"`

	GPUHours stats.StreamingState                     `json:"gpu_hours"`
	WaitSec  stats.StreamingState                     `json:"wait_sec"`
	RunMin   stats.StreamingState                     `json:"run_min"`
	MeanUtil [metrics.NumMetrics]stats.StreamingState `json:"mean_util"`
}

// State exports the digest's exact internal state.
func (s *SegSummary) State() SegSummaryState {
	out := SegSummaryState{
		Jobs: s.Jobs, GPUJobs: s.GPUJobs, CPUJobs: s.CPUJobs, MultiGPU: s.MultiGPU,
		GPUHours: s.GPUHours.State(), WaitSec: s.WaitSec.State(), RunMin: s.RunMin.State(),
	}
	for m := range s.MeanUtil {
		out.MeanUtil[m] = s.MeanUtil[m].State()
	}
	return out
}

// SegSummaryFromState reconstructs the digest State exported.
func SegSummaryFromState(st SegSummaryState) SegSummary {
	out := SegSummary{
		Jobs: st.Jobs, GPUJobs: st.GPUJobs, CPUJobs: st.CPUJobs, MultiGPU: st.MultiGPU,
		GPUHours: stats.FromState(st.GPUHours),
		WaitSec:  stats.FromState(st.WaitSec),
		RunMin:   stats.FromState(st.RunMin),
	}
	for m := range out.MeanUtil {
		out.MeanUtil[m] = stats.FromState(st.MeanUtil[m])
	}
	return out
}

// SegBoundary records one sealed segment: its end in appended-job order
// (starts are implied by the previous boundary) and its digest verbatim.
type SegBoundary struct {
	EndJob int             `json:"end_job"`
	Agg    SegSummaryState `json:"agg"`
}

// StagedEntry is one parked telemetry record awaiting its §II join.
type StagedEntry struct {
	JobID  int64                     `json:"job_id"`
	PerGPU []metrics.MetricSummaries `json:"per_gpu,omitempty"`
	Series *TimeSeries               `json:"series,omitempty"`
}

// SegStoreState is the complete logical state of a SegStore: jobs in append
// order (post-join — staged telemetry already adopted by its record), the
// retained series, the still-parked telemetry, and the sealed-segment
// geometry with verbatim digests. Everything a restore needs; nothing
// derivable is stored (columns, sorted runs and indexes rebuild from the
// job sequence bit-identically).
type SegStoreState struct {
	Jobs     []JobRecord   `json:"jobs"`
	Series   []*TimeSeries `json:"series,omitempty"`
	Staged   []StagedEntry `json:"staged,omitempty"`
	Segments []SegBoundary `json:"segments,omitempty"`
}

// ExportState captures the store's logical state. The returned slices are
// fresh copies of the store's bookkeeping (records are copied by value;
// series and per-GPU digests are shared immutable data), safe to serialize
// concurrently with later appends.
func (st *SegStore) ExportState() *SegStoreState {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := &SegStoreState{Jobs: make([]JobRecord, 0, st.nJobs)}
	for _, chunk := range st.chunks {
		s.Jobs = append(s.Jobs, chunk...)
	}
	for _, id := range sortedSeriesKeys(st.series) {
		s.Series = append(s.Series, st.series[id])
	}
	stagedIDs := make([]int64, 0, len(st.staged))
	for id := range st.staged {
		stagedIDs = append(stagedIDs, id)
	}
	sort.Slice(stagedIDs, func(a, b int) bool { return stagedIDs[a] < stagedIDs[b] })
	for _, id := range stagedIDs {
		tel := st.staged[id]
		s.Staged = append(s.Staged, StagedEntry{JobID: id, PerGPU: tel.perGPU, Series: tel.series})
	}
	for _, seg := range st.sealed {
		s.Segments = append(s.Segments, SegBoundary{EndJob: seg.endJob, Agg: seg.agg.State()})
	}
	return s
}

// RestoreSegStore rebuilds a store from an exported state. Jobs re-append in
// order (so every column, index and sorted view rebuilds exactly as the
// original built them), segments are cut at the recorded boundaries with the
// recorded digests, and the tail digest re-accumulates over the jobs past
// the last boundary — the same Add sequence the original folded. Automatic
// seal/compaction thresholds do not fire during restore; the recorded
// geometry already reflects every seal and compaction the original
// performed.
func RestoreSegStore(cfg SegConfig, s *SegStoreState) (*SegStore, error) {
	prev := 0
	for i, b := range s.Segments {
		if b.EndJob <= prev || b.EndJob > len(s.Jobs) {
			return nil, fmt.Errorf("trace: snapshot segment %d ends at job %d (prev %d, jobs %d)",
				i, b.EndJob, prev, len(s.Jobs))
		}
		prev = b.EndJob
	}
	st := NewSegStore(cfg)
	st.mu.Lock()
	defer st.mu.Unlock()
	segIdx := 0
	for i := range s.Jobs {
		st.appendLocked(s.Jobs[i])
		if segIdx < len(s.Segments) && s.Segments[segIdx].EndJob == st.nJobs {
			st.sealSegmentLocked(SegSummaryFromState(s.Segments[segIdx].Agg))
			segIdx++
		}
	}
	for _, ts := range s.Series {
		st.series[ts.JobID] = ts
	}
	for _, e := range s.Staged {
		st.staged[e.JobID] = stagedTelemetry{perGPU: e.PerGPU, series: e.Series}
	}
	st.gen++
	st.snap = nil
	// The store is not shared yet, so its runs sort under the lock.
	sortRuns(st.takeUnsortedLocked())
	return st, nil
}
