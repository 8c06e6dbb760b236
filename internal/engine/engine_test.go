package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/slurm"
	"repro/internal/stats"
	"repro/internal/workload"
)

// synthReplicator is a cheap deterministic replicator: its metrics are pure
// functions of the replication seed, so any scheduling of the workers must
// reproduce the same merged summary.
func synthReplicator(ctx context.Context, rep int, seed uint64) (Sample, error) {
	rng := dist.New(seed)
	sum := 0.0
	for i := 0; i < 100; i++ {
		sum += rng.Float64()
	}
	return Sample{
		"sum":   sum,
		"first": float64(rng.Uint64() % 1000),
	}, nil
}

func smallExperiment() Experiment {
	gcfg := workload.ScaledConfig(0.005)
	scfg := slurm.DefaultConfig()
	scfg.Cluster.Nodes = 8
	return Experiment{Gen: gcfg, Sim: scfg}
}

func runBatch(t *testing.T, workers, reps int, fn Replicator) *Batch {
	t.Helper()
	b, err := Run(context.Background(), Config{RootSeed: 42, Reps: reps, Workers: workers}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Completed(); got != reps {
		t.Fatalf("completed %d of %d replications; first error: %v", got, reps, b.FirstErr())
	}
	return b
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	const reps = 12
	serial := runBatch(t, 1, reps, synthReplicator)
	want := serial.Merged.Fingerprint()
	for _, workers := range []int{2, 4, 8} {
		b := runBatch(t, workers, reps, synthReplicator)
		if got := b.Merged.Fingerprint(); got != want {
			var a, bb strings.Builder
			serial.Merged.WriteCanonical(&a)
			b.Merged.WriteCanonical(&bb)
			t.Fatalf("workers=%d merged summary differs from serial:\nserial:\n%s\nparallel:\n%s",
				workers, a.String(), bb.String())
		}
	}
}

// TestRunDeterministicFullPipeline proves the headline contract on the real
// pipeline: generator → scheduler → characterization, workers=1 vs
// workers=8, byte-identical merged summaries.
func TestRunDeterministicFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline replication batch in -short mode")
	}
	const reps = 4
	fn := smallExperiment().Replicator()
	serial := runBatch(t, 1, reps, fn)
	parallel := runBatch(t, 8, reps, fn)
	if serial.Merged.Fingerprint() != parallel.Merged.Fingerprint() {
		var a, b strings.Builder
		serial.Merged.WriteCanonical(&a)
		parallel.Merged.WriteCanonical(&b)
		t.Fatalf("workers=1 vs workers=8 summaries differ:\nserial:\n%s\nparallel:\n%s", a.String(), b.String())
	}
	if serial.Merged.N() != reps {
		t.Fatalf("merged %d reps, want %d", serial.Merged.N(), reps)
	}
	// The replicated pipeline must preserve the Fig. 3b ordering in every
	// replication, not just on average.
	gap := serial.Merged.Agg("wait_median_gap_s")
	if gap == nil {
		t.Fatal("missing wait_median_gap_s metric")
	}
	if gap.Min() < 0 {
		t.Fatalf("a replication produced GPU median wait above CPU median wait: min gap %v", gap.Min())
	}
}

func TestRunSeedsAreStreamSeeds(t *testing.T) {
	b := runBatch(t, 3, 5, synthReplicator)
	for i, r := range b.Results {
		if want := dist.StreamSeed(42, uint64(i)); r.Seed != want {
			t.Fatalf("rep %d seed %#x, want StreamSeed %#x", i, r.Seed, want)
		}
	}
}

func TestRunPanicBarrier(t *testing.T) {
	fn := func(ctx context.Context, rep int, seed uint64) (Sample, error) {
		if rep == 2 {
			panic("bad seed")
		}
		return synthReplicator(ctx, rep, seed)
	}
	b, err := Run(context.Background(), Config{RootSeed: 9, Reps: 6, Workers: 4}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Completed(); got != 5 {
		t.Fatalf("completed %d, want 5", got)
	}
	failed := b.Failed()
	if len(failed) != 1 || failed[0].Rep != 2 {
		t.Fatalf("failed set %v, want exactly rep 2", failed)
	}
	if !strings.Contains(failed[0].Err.Error(), "bad seed") {
		t.Fatalf("panic message lost: %v", failed[0].Err)
	}
	if !strings.Contains(failed[0].Err.Error(), "engine_test.go") {
		t.Fatalf("panic stack lost: %v", failed[0].Err)
	}
	// The failed replication is excluded from the merge; the others are not.
	if b.Merged.N() != 5 {
		t.Fatalf("merged %d reps, want 5", b.Merged.N())
	}
	for _, rep := range b.Merged.Reps() {
		if rep == 2 {
			t.Fatal("failed replication leaked into the merged summary")
		}
	}
}

func TestRunReplicatorErrorFailsSoft(t *testing.T) {
	sentinel := errors.New("synthetic failure")
	fn := func(ctx context.Context, rep int, seed uint64) (Sample, error) {
		if rep%2 == 1 {
			return nil, sentinel
		}
		return synthReplicator(ctx, rep, seed)
	}
	b, err := Run(context.Background(), Config{RootSeed: 1, Reps: 4, Workers: 2}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if b.Completed() != 2 || len(b.Failed()) != 2 {
		t.Fatalf("completed=%d failed=%d, want 2/2", b.Completed(), len(b.Failed()))
	}
	if !errors.Is(b.FirstErr(), sentinel) {
		t.Fatalf("FirstErr does not wrap the replicator error: %v", b.FirstErr())
	}
}

func TestRunCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	release := make(chan struct{})
	fn := func(ctx context.Context, rep int, seed uint64) (Sample, error) {
		if rep == 0 {
			// First replication completes, then cancels the batch.
			s, err := synthReplicator(ctx, rep, seed)
			done.Add(1)
			cancel()
			close(release)
			return s, err
		}
		// Later replications block until the cancellation fired, then honor
		// the context like a well-behaved replicator.
		<-release
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := synthReplicator(ctx, rep, seed)
		done.Add(1)
		return s, err
	}
	b, err := Run(ctx, Config{RootSeed: 5, Reps: 64, Workers: 2}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Canceled {
		t.Fatal("batch not marked canceled")
	}
	if got := b.Completed(); got < 1 || got > 2 {
		t.Fatalf("completed %d replications, want the pre-cancellation 1-2", got)
	}
	if b.Merged.N() != b.Completed() {
		t.Fatalf("merged %d but completed %d", b.Merged.N(), b.Completed())
	}
	// Every result slot is accounted for: completed, failed with a context
	// error, or never started (also context error).
	for i, r := range b.Results {
		switch {
		case r.Started && r.Err == nil:
		case r.Err != nil && errors.Is(r.Err, context.Canceled):
		default:
			t.Fatalf("rep %d in limbo after cancellation: started=%v err=%v", i, r.Started, r.Err)
		}
	}
}

func TestRunRejectsZeroReps(t *testing.T) {
	if _, err := Run(context.Background(), Config{Reps: 0}, synthReplicator); err == nil {
		t.Fatal("expected validation error for zero reps")
	}
}

func TestSummaryRaggedSamplesStayAligned(t *testing.T) {
	s := NewSummary()
	s.AddSample(0, Sample{"a": 1})
	s.AddSample(1, Sample{"a": 2, "b": 10})
	s.AddSample(2, Sample{"b": 20})
	for _, key := range []string{"a", "b"} {
		if got := s.Agg(key).N(); got != 3 {
			t.Fatalf("metric %q has %d slots, want 3 (NaN-padded)", key, got)
		}
	}
	if got := s.Agg("a").Defined(); got != 2 {
		t.Fatalf("metric a defined %d, want 2", got)
	}
	if got := s.Agg("b").Mean(); got != 15 {
		t.Fatalf("metric b mean %v, want 15", got)
	}
}

func TestRowsDeterministic(t *testing.T) {
	build := func() *Summary {
		s := NewSummary()
		for rep := 0; rep < 8; rep++ {
			sm, _ := synthReplicator(context.Background(), rep, dist.StreamSeed(7, uint64(rep)))
			s.AddSample(rep, sm)
		}
		return s
	}
	r1 := build().Rows(200, 0.95, 99)
	r2 := build().Rows(200, 0.95, 99)
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Fatal("Rows not deterministic for a fixed CI seed")
	}
	if len(r1) != 2 {
		t.Fatalf("got %d rows, want 2", len(r1))
	}
	for _, r := range r1 {
		if !(r.CI.Lo <= r.Mean && r.Mean <= r.CI.Hi) {
			t.Fatalf("CI does not bracket mean for %s: %+v", r.Metric, r)
		}
	}
}

// Reps returns the folded replication indices in fold order.
func (s *Summary) Reps() []int { return s.reps }

// Agg returns the aggregate for one metric, or nil if unknown.
func (s *Summary) Agg(metric string) *stats.Agg { return s.aggs[metric] }
