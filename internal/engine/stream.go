package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/trace"
)

// DatasetReplicator computes one replication and returns its full dataset
// alongside the scalar sample — the streaming analogue of Replicator for
// callers that want the per-job records, not just the folded metrics.
// The same concurrency contract applies: no shared mutable state.
type DatasetReplicator func(ctx context.Context, rep int, seed uint64) (*trace.Dataset, Sample, error)

// repIDBits is the job-ID namespace width left to one replication when
// streaming into a shared store: IDs are offset by (rep+1)<<repIDBits so
// records from different replications never collide. 2^40 jobs per
// replication is far beyond any simulated population.
const repIDBits = 40

// StreamJobID returns the store-wide job ID of job id in replication rep.
func StreamJobID(rep int, id int64) int64 {
	return (int64(rep)+1)<<repIDBits | id
}

// StreamSink receives each completed replication's dataset — job IDs
// already namespaced via StreamJobID — in replication-index order. A local
// trace.SegStore satisfies it through SegStoreSink; the durable ingest
// client satisfies it directly, which is how a simulation streams its
// replications into a remote simcloudd with retry and idempotency instead
// of an in-process store. A sink error aborts the batch: a half-streamed
// store has no meaningful merged interpretation.
type StreamSink interface {
	AppendStreamDataset(ds *trace.Dataset) error
}

// SegStoreSink adapts a local SegStore to StreamSink. Appends cannot fail.
type SegStoreSink struct{ Store *trace.SegStore }

// AppendStreamDataset implements StreamSink.
func (s SegStoreSink) AppendStreamDataset(ds *trace.Dataset) error {
	s.Store.AppendDataset(ds)
	return nil
}

// RunStream executes cfg.Reps replications of fn across the worker pool and
// streams every completed replication's dataset into store. It is
// RunStreamTo with the store wrapped in SegStoreSink; the determinism
// contract below applies unchanged.
func RunStream(ctx context.Context, cfg Config, store *trace.SegStore, fn DatasetReplicator) (*Batch, error) {
	if store == nil {
		return nil, fmt.Errorf("engine: RunStream needs a store")
	}
	return RunStreamTo(ctx, cfg, SegStoreSink{Store: store}, fn)
}

// RunStreamTo executes cfg.Reps replications of fn across the worker pool
// and streams every completed replication's dataset into sink. Completions
// are flushed in replication-index order (out-of-order finishers park in a
// pending buffer), so the sink's append sequence — and therefore every
// figure computed from any resulting store snapshot — is bit-identical for
// any worker count, extending the engine's determinism guarantee to the
// streaming path. Job IDs are namespaced per replication via StreamJobID
// before flushing. Unlike Run, a replication failure (or sink failure)
// aborts the batch.
func RunStreamTo(ctx context.Context, cfg Config, sink StreamSink, fn DatasetReplicator) (*Batch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, fmt.Errorf("engine: RunStreamTo needs a sink")
	}
	// pending parks completed datasets until every lower replication has
	// been flushed; whichever worker completes a replication drains the
	// ready prefix, so flushing needs no dedicated goroutine. A sink error
	// latches: nothing further is flushed, preserving the prefix property
	// (everything the sink received is replications 0..k in order).
	var (
		flushMu sync.Mutex
		pending = make(map[int]*trace.Dataset)
		next    int
		sinkErr error
	)
	flush := func(rep int, ds *trace.Dataset) {
		flushMu.Lock()
		defer flushMu.Unlock()
		pending[rep] = ds
		for sinkErr == nil {
			d, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			if err := sink.AppendStreamDataset(namespacedDataset(next, d)); err != nil {
				sinkErr = fmt.Errorf("engine: streaming replication %d: %w", next, err)
				return
			}
			next++
		}
	}

	batch := dispatch(ctx, cfg, func(r *RepResult) {
		var ds *trace.Dataset
		r.Err = guard(ctx, r.Rep, func() (err error) {
			ds, r.Sample, err = fn(ctx, r.Rep, r.Seed)
			return err
		})
		if r.Err == nil {
			flush(r.Rep, ds)
		}
	})
	if sinkErr != nil {
		return batch, sinkErr
	}
	if err := batch.FirstErr(); err != nil {
		return batch, err
	}
	batch.merge()
	return batch, nil
}

// namespacedDataset rebuilds ds with rep-namespaced job IDs: records in
// dataset order, each retained series re-keyed to its job's new ID. The
// result appends into a SegStore with exactly the final state of the old
// per-job streaming path (seals fire at the same job counts; series land
// under the same keys), and as one batch it is also one idempotent ingest
// request on the remote path.
func namespacedDataset(rep int, ds *trace.Dataset) *trace.Dataset {
	out := trace.NewDataset(ds.DurationDays)
	for i := range ds.Jobs {
		j := ds.Jobs[i]
		oldID := j.JobID
		j.JobID = StreamJobID(rep, oldID)
		out.Add(j)
		if ts := ds.Series[oldID]; ts != nil {
			keyed := *ts
			keyed.JobID = j.JobID
			out.AttachSeries(&keyed)
		}
	}
	return out
}
