package trace

import (
	"sort"

	"repro/internal/metrics"
)

// This file is the snapshot side of the durability layer (internal/durable):
// an exact export of a SegStore's logical state and a restore that rebuilds
// a store whose every future query is byte-identical to the original's.
//
// Every answer — figures and the Summary digest alike — is a function of
// the job sequence in append order, so the job list is the whole contract.
// Restore re-appends the jobs through the ordinary append path, auto-seals
// included: every column, fold and digest rebuilds bit-identically, and the
// sealed runs come out as an auto-sealed store's would. Where the original
// store sealed is not recorded; it never changed an answer.

// StagedEntry is one parked telemetry record awaiting its §II join.
type StagedEntry struct {
	JobID  int64                     `json:"job_id"`
	PerGPU []metrics.MetricSummaries `json:"per_gpu,omitempty"`
	Series *TimeSeries               `json:"series,omitempty"`
}

// SegStoreState is the complete logical state of a SegStore: jobs in append
// order (post-join — staged telemetry already adopted by its record), the
// retained series and the still-parked telemetry. Everything a restore
// needs; nothing derivable is stored (columns, sorted runs, folds and the
// digest rebuild from the job sequence bit-identically). Snapshots written
// when segment geometry was recorded also carry a "segments" array, which
// decoding skips.
type SegStoreState struct {
	Jobs   []JobRecord   `json:"jobs"`
	Series []*TimeSeries `json:"series,omitempty"`
	Staged []StagedEntry `json:"staged,omitempty"`
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
	return s
}

// RestoreSegStore rebuilds a store from an exported state. Jobs re-append
// in order, sealing wherever cfg's threshold says, so every column, sorted
// view and the Summary digest rebuild exactly as the original built them;
// one Settle then sorts the sealed runs and folds them into the prefixes.
func RestoreSegStore(cfg SegConfig, s *SegStoreState) *SegStore {
	st := NewSegStore(cfg)
	st.restore(s)
	st.Settle()
	return st
}

func (st *SegStore) restore(s *SegStoreState) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range s.Jobs {
		st.appendLocked(s.Jobs[i])
		st.maybeSealLocked()
	}
	for _, ts := range s.Series {
		st.series[ts.JobID] = ts
	}
	for _, e := range s.Staged {
		st.staged[e.JobID] = stagedTelemetry{perGPU: e.PerGPU, series: e.Series}
	}
	st.gen++
	st.snap = nil
}
