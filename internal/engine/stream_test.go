package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// streamStore runs the small experiment through RunStreamTo with the given
// worker count and segment size, returning the batch and the filled store.
func streamStore(t *testing.T, workers, segJobs int) (*Batch, *trace.SegStore) {
	t.Helper()
	e := smallExperiment()
	st := trace.NewSegStore(trace.SegConfig{
		DurationDays: e.Gen.DurationDays,
		SegmentJobs:  segJobs,
	})
	b, err := RunStreamTo(context.Background(), Config{RootSeed: 5, Reps: 4, Workers: workers},
		SegStoreSink{Store: st}, e.DatasetReplicator())
	if err != nil {
		t.Fatal(err)
	}
	return b, st
}

// TestRunStreamDeterministicAcrossWorkerCounts extends the engine's
// determinism guarantee to the streaming path: the store's contents (every
// figure over its snapshot) and the merged summary must be bit-identical
// whether one worker streamed the batch or several raced through it, for
// different segment sizes too.
func TestRunStreamDeterministicAcrossWorkerCounts(t *testing.T) {
	refBatch, refStore := streamStore(t, 1, 500)
	want := core.CharacterizeSeg(refStore.Snapshot(), 1)
	wantSummary := refBatch.Merged.Fingerprint()
	for _, workers := range []int{2, 4} {
		for _, segJobs := range []int{100, 5000} {
			b, st := streamStore(t, workers, segJobs)
			got := core.CharacterizeSeg(st.Snapshot(), workers)
			label := fmt.Sprintf("workers=%d/seg=%d", workers, segJobs)
			if gs, ws := fmt.Sprintf("%v", got), fmt.Sprintf("%v", want); gs != ws {
				t.Errorf("%s: streamed figures differ from single-worker run", label)
			}
			if gs := b.Merged.Fingerprint(); gs != wantSummary {
				t.Errorf("%s: merged summary differs", label)
			}
		}
	}
}

// TestRunStreamMatchesRun pins the scalar side: RunStreamTo's merged summary
// equals Run's for the same configuration (the dataset hand-off must not
// perturb the sample pipeline).
func TestRunStreamMatchesRun(t *testing.T) {
	e := smallExperiment()
	cfg := Config{RootSeed: 9, Reps: 3, Workers: 2}
	runBatch, err := Run(context.Background(), cfg, e.Replicator())
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewSegStore(trace.SegConfig{DurationDays: e.Gen.DurationDays})
	streamBatch, err := RunStreamTo(context.Background(), cfg, SegStoreSink{Store: st}, e.DatasetReplicator())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := streamBatch.Merged.Fingerprint(), runBatch.Merged.Fingerprint(); got != want {
		t.Errorf("merged summaries differ\n want %.300s\n  got %.300s", want, got)
	}
	if st.Len() == 0 {
		t.Fatal("store is empty after RunStreamTo")
	}
}

// TestStreamJobIDNamespacing checks the per-replication ID namespace is
// collision-free and order-preserving.
func TestStreamJobIDNamespacing(t *testing.T) {
	if StreamJobID(0, 1) == StreamJobID(1, 1) {
		t.Error("replications collide")
	}
	if StreamJobID(0, 7) <= StreamJobID(0, 6) {
		t.Error("order not preserved within a replication")
	}
	if StreamJobID(2, 1<<repIDBits-1) >= StreamJobID(3, 0) {
		t.Error("replication namespaces overlap")
	}
}

// SegStoreSink adapts a local SegStore to StreamSink for the streaming
// tests. A replication dataset that fails validation aborts the batch.
type SegStoreSink struct{ Store *trace.SegStore }

// AppendStreamDataset implements StreamSink.
func (s SegStoreSink) AppendStreamDataset(ds *trace.Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	s.Store.AppendDataset(ds)
	return nil
}
