package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// chaosDeath is the panic value the test Exit hook throws: an in-process
// stand-in for the process dying at a failpoint. Recovering it and
// reopening the data directory is exactly what a restart does.
type chaosDeath struct{ point string }

func testChaos(t *testing.T, spec string) *Chaos {
	t.Helper()
	c, err := ParseChaos(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Exit = func(point string) { panic(chaosDeath{point}) }
	return c
}

// batchDS builds a small deterministic dataset; batchBody is its JSON wire
// form — the exact bytes a client would POST.
func batchDS(base int64, n int) *trace.Dataset {
	ds := trace.NewDataset(7)
	for k := 0; k < n; k++ {
		id := base + int64(k)
		j := trace.JobRecord{
			JobID:     id,
			User:      int(id % 17),
			SubmitSec: float64(id%1000) * 3.5,
			WaitSec:   float64(id%50) * 2.25,
			RunSec:    60 + float64(id%700),
			LimitSec:  3600,
		}
		if id%3 == 0 {
			j.NumGPUs = 1 + int(id%4)
			j.CoresPerGPU = 6
			for m := range j.GPU {
				j.GPU[m] = metrics.SummaryRecord{Min: 1, Mean: float64(10 + id%60), Max: 99}
			}
		} else {
			j.Cores = 4
		}
		ds.Add(j)
	}
	return ds
}

func batchBody(t *testing.T, base int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := batchDS(base, n).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fingerprint hashes a SegStore's complete exported state — jobs in order,
// series, staged telemetry, segment geometry and verbatim digests. Two
// stores with equal fingerprints answer every query identically.
func fingerprint(t *testing.T, st *trace.SegStore) string {
	t.Helper()
	b, err := json.Marshal(st.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

var testSegCfg = trace.SegConfig{DurationDays: 7, SegmentJobs: 64, MaxSegments: 4}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, testSegCfg, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

func mustIngest(t *testing.T, st *Store, id string, body []byte) {
	t.Helper()
	if _, dup, err := st.IngestBatch(id, body); err != nil || dup {
		t.Fatalf("ingest %s: dup=%v err=%v", id, dup, err)
	}
}

// TestStoreRecoveryAcrossRestarts: a store closed and reopened repeatedly,
// with telemetry and snapshots interleaved, must stay bit-identical to an
// in-memory reference fed the same operations once each.
func TestStoreRecoveryAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Sync: true, SnapshotJobs: 150, RotateBytes: 1 << 12}
	st := mustOpen(t, dir, opts)
	ref := trace.NewSegStore(testSegCfg)

	for i := 0; i < 10; i++ {
		body := batchBody(t, int64(i)*1000, 40+i)
		if _, dup, err := st.IngestBatch(fmt.Sprintf("batch-%d", i), body); err != nil || dup {
			t.Fatalf("ingest %d: dup=%v err=%v", i, dup, err)
		}
		ds, err := trace.ReadJSON(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		ref.AppendDataset(ds)
		if i%3 == 0 {
			jobID := int64(1<<40 + i)
			per := []metrics.MetricSummaries{{metrics.SMUtil: {Min: 1, Mean: 2, Max: 3}}}
			ts := &trace.TimeSeries{JobID: jobID, IntervalSec: 0.1}
			if err := st.StageTelemetry(jobID, per, ts); err != nil {
				t.Fatal(err)
			}
			ref.StageTelemetry(jobID, per, ts)
		}
		if i%4 == 3 {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = mustOpen(t, dir, opts)
		}
	}
	if a, b := fingerprint(t, st.Seg()), fingerprint(t, ref); a != b {
		t.Fatal("recovered store diverged from reference")
	}

	// Idempotency across restarts: a duplicate batch ID returns the
	// recorded outcome and changes nothing.
	before := fingerprint(t, st.Seg())
	out, dup, err := st.IngestBatch("batch-0", batchBody(t, 0, 40))
	if err != nil || !dup || out.Jobs != 40 {
		t.Fatalf("duplicate replay: out=%+v dup=%v err=%v", out, dup, err)
	}
	if fingerprint(t, st.Seg()) != before {
		t.Fatal("duplicate batch mutated the store")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreChaosKillMatrix is the in-process half of the chaos harness: 60
// randomized kill points — torn WAL writes at random byte offsets, deaths
// between commit and apply, deaths inside snapshot writing — each followed
// by a restart and a blind client retry. Every trial must converge to the
// exact state of an uninterrupted reference.
func TestStoreChaosKillMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const trials = 60
	const nBatches = 6
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		killOp := rng.Intn(nBatches)
		jobs := 10 + rng.Intn(30)

		// Pick the failure mode; wal:<off> dominates so torn-write offsets
		// get dense coverage, including offset 0 (nothing written) and the
		// full frame (record durable, death before apply-equivalent).
		var spec string
		switch k := rng.Intn(10); {
		case k < 6:
			body := batchBody(t, int64(killOp)*1000, jobs)
			frameLen := recHdrSize + 2 + len(fmt.Sprintf("batch-%d", killOp)) + len(body)
			spec = fmt.Sprintf("wal:%d", rng.Intn(frameLen+1))
		case k < 7:
			spec = "apply:1"
		case k < 8:
			spec = "snaptmp:1"
		case k < 9:
			spec = "snaprename:1"
		default:
			spec = "snapprune:1"
		}
		// A small snapshot threshold makes the snapshot failpoints reachable
		// mid-run and exercises pruning under the WAL kill modes too.
		opts := Options{Sync: true, SnapshotJobs: 50, RotateBytes: 1 << 11}

		st := mustOpen(t, dir, opts)
		ref := trace.NewSegStore(testSegCfg)
		sawDeath := false
		for op := 0; op < nBatches; op++ {
			id := fmt.Sprintf("batch-%d", op)
			body := batchBody(t, int64(op)*1000, jobs)
			if op == killOp {
				armed := opts
				armed.Chaos = testChaos(t, spec)
				if err := st.Close(); err != nil {
					t.Fatalf("trial %d: close before arming: %v", trial, err)
				}
				st = mustOpen(t, dir, armed)
			}
			died := func() (died bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(chaosDeath); !ok {
							panic(r)
						}
						died = true
					}
				}()
				_, dup, err := st.IngestBatch(id, body)
				if err != nil {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
				if dup {
					t.Fatalf("trial %d op %d: fresh batch reported duplicate", trial, op)
				}
				return false
			}()
			if died {
				sawDeath = true
				// "Restart": reopen the data directory and retry blindly —
				// the idempotency ledger decides whether the killed attempt
				// committed.
				st = mustOpen(t, dir, opts)
				if _, _, err := st.IngestBatch(id, body); err != nil {
					t.Fatalf("trial %d op %d: retry after death at %s: %v", trial, op, spec, err)
				}
			}
			ds, err := trace.ReadJSON(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			ref.AppendDataset(ds)
		}
		if !sawDeath {
			// The snapshot failpoints only trip when a snapshot runs; if the
			// auto-threshold never did, force one now and die there.
			died := func() (died bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(chaosDeath); !ok {
							panic(r)
						}
						died = true
					}
				}()
				if err := st.Snapshot(); err != nil {
					t.Fatalf("trial %d: forced snapshot: %v", trial, err)
				}
				return false
			}()
			if !died {
				t.Fatalf("trial %d: failpoint %s never fired", trial, spec)
			}
			st = mustOpen(t, dir, opts)
		}
		// One more restart, then the recovered store must match the
		// uninterrupted reference exactly.
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = mustOpen(t, dir, opts)
		if a, b := fingerprint(t, st.Seg()), fingerprint(t, ref); a != b {
			t.Fatalf("trial %d (kill %s at op %d): recovered state diverged", trial, spec, killOp)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreChaosAdminOps: deaths between logging and applying a seal or
// compaction. The operation committed (it reached the WAL), so recovery
// must apply it — geometry is recovered state.
func TestStoreChaosAdminOps(t *testing.T) {
	for _, op := range []string{"sealapply", "compactapply"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Sync: true}
			armed := opts
			armed.Chaos = testChaos(t, op+":1")
			st := mustOpen(t, dir, armed)
			ref := trace.NewSegStore(testSegCfg)
			for i := 0; i < 3; i++ {
				body := batchBody(t, int64(i)*1000, 50)
				if _, _, err := st.IngestBatch(fmt.Sprintf("b%d", i), body); err != nil {
					t.Fatal(err)
				}
				ds, err := trace.ReadJSON(bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				ref.AppendDataset(ds)
			}
			died := func() (died bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(chaosDeath); !ok {
							panic(r)
						}
						died = true
					}
				}()
				var err error
				if op == "sealapply" {
					err = st.SealTail()
				} else {
					err = st.Compact()
				}
				if err != nil {
					t.Fatal(err)
				}
				return false
			}()
			if !died {
				t.Fatalf("%s failpoint never fired", op)
			}
			if op == "sealapply" {
				ref.SealTail()
			} else {
				ref.Compact()
			}
			st = mustOpen(t, dir, opts)
			if a, b := fingerprint(t, st.Seg()), fingerprint(t, ref); a != b {
				t.Fatalf("%s: recovered geometry diverged from reference", op)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreSnapshotFallback: recovery must survive the newest snapshot
// being unreadable by falling back to the previous one plus a longer WAL
// replay — which is why pruning retains two snapshots.
func TestStoreSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Sync: true}
	st := mustOpen(t, dir, opts)
	ref := trace.NewSegStore(testSegCfg)
	for i := 0; i < 4; i++ {
		body := batchBody(t, int64(i)*1000, 30)
		if _, _, err := st.IngestBatch(fmt.Sprintf("b%d", i), body); err != nil {
			t.Fatal(err)
		}
		ds, err := trace.ReadJSON(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		ref.AppendDataset(ds)
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest snapshot in place.
	snap, err := loadLatestSnapshot(dir)
	if err != nil || snap == nil {
		t.Fatalf("no snapshot to corrupt: %v", err)
	}
	if err := corruptNewestSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := st.w.Close(); err != nil { // release, bypassing Close's final snapshot
		t.Fatal(err)
	}
	st = mustOpen(t, dir, opts)
	if a, b := fingerprint(t, st.Seg()), fingerprint(t, ref); a != b {
		t.Fatal("fallback recovery diverged from reference")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRejectsWrongConfig: resuming a data directory under different
// store geometry must fail instead of silently corrupting digests.
func TestStoreRejectsWrongConfig(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Sync: true})
	if _, _, err := st.IngestBatch("b", batchBody(t, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	other := testSegCfg
	other.SegmentJobs = 128
	if _, err := Open(dir, other, Options{Sync: true}); err == nil {
		t.Fatal("Open accepted a data dir written under different geometry")
	}
}

// TestStoreErrorsAreTypedAndUnlogged: rejected requests must map to their
// typed errors and leave no trace in the WAL (a rejection must not replay).
func TestStoreErrorsAreTypedAndUnlogged(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Sync: true, MaxJobs: 25}
	st := mustOpen(t, dir, opts)
	if _, _, err := st.IngestBatch("ok", batchBody(t, 0, 20)); err != nil {
		t.Fatal(err)
	}
	var de *DecodeError
	if _, _, err := st.IngestBatch("bad", []byte(`{"jobs": [`)); !errors.As(err, &de) {
		t.Fatalf("malformed JSON: got %v, want *DecodeError", err)
	}
	de = nil
	if _, _, err := st.IngestBatch("bad", []byte(`{"jobs": [{"JobID": -5}]}`)); !errors.As(err, &de) {
		t.Fatalf("invalid record: got %v, want *DecodeError", err)
	}
	var ce *trace.CapacityError
	if _, _, err := st.IngestBatch("big", batchBody(t, 5000, 10)); !errors.As(err, &ce) {
		t.Fatalf("overflow: got %v, want *trace.CapacityError", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = mustOpen(t, dir, opts)
	if got := st.Seg().Len(); got != 20 {
		t.Fatalf("after recovery: %d jobs, want 20 (rejections must not be logged)", got)
	}
	if _, dup, _ := st.IngestBatch("bad", batchBody(t, 9000, 1)); dup {
		t.Fatal("rejected batch ID was recorded as applied")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// corruptNewestSnapshot truncates the newest snapshot file so it no longer
// decodes.
func corruptNewestSnapshot(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var newest string
	var newestSeq uint64
	for _, e := range ents {
		if seq, ok := parseSnapName(e.Name()); ok && (newest == "" || seq > newestSeq) {
			newest, newestSeq = e.Name(), seq
		}
	}
	if newest == "" {
		return fmt.Errorf("no snapshots")
	}
	return os.Truncate(filepath.Join(dir, newest), 10)
}

// TestStoreDuplicateBeatsDecodeError: a known batch ID returns its recorded
// outcome even when this copy of the body is malformed — the ledger, not
// the body, decides a retry.
func TestStoreDuplicateBeatsDecodeError(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{Sync: true})
	defer st.Close()
	want, _, err := st.IngestBatch("b", batchBody(t, 0, 12))
	if err != nil {
		t.Fatal(err)
	}
	got, dup, err := st.IngestBatch("b", []byte(`{"jobs": [`))
	if err != nil || !dup || got != want {
		t.Fatalf("duplicate with malformed body: out=%+v dup=%v err=%v, want %+v dup=true", got, dup, err, want)
	}
}

// TestStoreDecodeErrorLogsNothing: a fresh ID with a malformed body is a
// *DecodeError and leaves the WAL untouched.
func TestStoreDecodeErrorLogsNothing(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{Sync: true})
	defer st.Close()
	mustIngest(t, st, "ok", batchBody(t, 0, 5))
	before := st.WALBytes()
	var de *DecodeError
	if _, dup, err := st.IngestBatch("fresh", []byte(`{"jobs": [`)); !errors.As(err, &de) || dup {
		t.Fatalf("malformed body: dup=%v err=%v, want *DecodeError", dup, err)
	}
	if after := st.WALBytes(); after != before {
		t.Fatalf("rejected batch wrote %d WAL bytes", after-before)
	}
}

// TestStoreIngestDuringCheckpointWrite: while a checkpoint is being
// written, another batch commits and acks — the snapshot write does not
// hold the commit lock. The process then dies before the snapshot rename;
// recovery must hold both batches exactly once.
func TestStoreIngestDuringCheckpointWrite(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Sync: true, SnapshotJobs: 50}
	bodyA, bodyB := batchBody(t, 0, 60), batchBody(t, 1000, 10)

	var st *Store
	armed := opts
	armed.Chaos = testChaos(t, "snaptmp:1")
	armed.Chaos.Exit = func(point string) {
		acked := make(chan error, 1)
		go func() {
			_, _, err := st.IngestBatch("b", bodyB)
			acked <- err
		}()
		select {
		case err := <-acked:
			if err != nil {
				t.Errorf("ingest during checkpoint write: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("ingest did not ack within 5s while a checkpoint was being written")
		}
		panic(chaosDeath{point})
	}
	st = mustOpen(t, dir, armed)
	died := func() (died bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(chaosDeath); !ok {
					panic(r)
				}
				died = true
			}
		}()
		_, _, err := st.IngestBatch("a", bodyA)
		t.Fatalf("batch crossing the snapshot threshold returned (err=%v) instead of dying at snaptmp", err)
		return false
	}()
	if !died || t.Failed() {
		t.FailNow()
	}

	st = mustOpen(t, dir, opts)
	defer st.Close()
	ref := trace.NewSegStore(testSegCfg)
	for _, b := range []struct {
		id   string
		body []byte
	}{{"a", bodyA}, {"b", bodyB}} {
		if out, dup, err := st.IngestBatch(b.id, b.body); err != nil || !dup {
			t.Fatalf("batch %s after restart: out=%+v dup=%v err=%v, want recovered", b.id, out, dup, err)
		}
		ds, err := trace.ReadJSON(bytes.NewReader(b.body))
		if err != nil {
			t.Fatal(err)
		}
		ref.AppendDataset(ds)
	}
	if a, b := fingerprint(t, st.Seg()), fingerprint(t, ref); a != b {
		t.Fatal("recovered store diverged from the uninterrupted reference")
	}
}

// TestStoreConcurrentOps runs ingest, telemetry, forced snapshots, seals and
// automatic checkpoints from several goroutines at once (run it under
// -race). The live store and the reopened one must both equal a reference
// fed the same operations in WAL-sequence order.
func TestStoreConcurrentOps(t *testing.T) {
	dir := t.TempDir()
	// One WAL file for the whole run, so the complete sequence order is
	// still on disk at the end.
	opts := Options{Sync: true, SnapshotJobs: 60, RotateBytes: 1 << 30}
	st := mustOpen(t, dir, opts)

	const ingesters, batches, jobs = 2, 12, 25
	bodies := map[string][]byte{}
	for g := 0; g < ingesters; g++ {
		for k := 0; k < batches; k++ {
			bodies[fmt.Sprintf("g%d-%d", g, k)] = batchBody(t, int64(g*batches+k)*100, jobs)
		}
	}
	// Telemetry for jobs that may arrive before or after it: a join or a
	// parked record, depending on the interleaving.
	type tel struct {
		per []metrics.MetricSummaries
		ts  *trace.TimeSeries
	}
	telemetry := map[int64]tel{}
	for k := int64(0); k < 20; k++ {
		id := k * 150
		telemetry[id] = tel{
			per: []metrics.MetricSummaries{{metrics.SMUtil: {Min: 1, Mean: float64(k), Max: 99}}},
			ts:  &trace.TimeSeries{JobID: id, IntervalSec: 0.5},
		}
	}
	const seals, snapshots = 5, 5

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < batches; k++ {
				id := fmt.Sprintf("g%d-%d", g, k)
				if _, dup, err := st.IngestBatch(id, bodies[id]); err != nil || dup {
					errs <- fmt.Errorf("ingest %s: dup=%v err=%v", id, dup, err)
				}
			}
		}(g)
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for id := int64(0); id < 20*150; id += 150 {
			if err := st.StageTelemetry(id, telemetry[id].per, telemetry[id].ts); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < snapshots; i++ {
			if err := st.Snapshot(); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < seals; i++ {
			if err := st.SealTail(); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	live := fingerprint(t, st.Seg())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebuild the reference from the test's own inputs, ordered by the WAL.
	ref := trace.NewSegStore(testSegCfg)
	seenBatches, seenTel, seenSeals := map[string]bool{}, map[int64]bool{}, 0
	_, err := replayWAL(dir, 0, Chain{}, func(rec Record) error {
		switch rec.Kind {
		case KindBatch:
			id, _, err := decodeBatchPayload(rec.Payload)
			if err != nil {
				return err
			}
			if seenBatches[id] || bodies[id] == nil {
				return fmt.Errorf("batch %q logged twice or never sent", id)
			}
			seenBatches[id] = true
			ds, err := trace.ReadJSON(bytes.NewReader(bodies[id]))
			if err != nil {
				return err
			}
			ref.AppendDataset(ds)
		case KindTelemetry:
			var tr telemetryRecord
			if err := json.Unmarshal(rec.Payload, &tr); err != nil {
				return err
			}
			in, ok := telemetry[tr.JobID]
			if seenTel[tr.JobID] || !ok {
				return fmt.Errorf("telemetry for job %d logged twice or never sent", tr.JobID)
			}
			seenTel[tr.JobID] = true
			ref.StageTelemetry(tr.JobID, in.per, in.ts)
		case KindSeal:
			seenSeals++
			ref.SealTail()
		default:
			return fmt.Errorf("unexpected record kind %d", rec.Kind)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seenBatches) != len(bodies) || len(seenTel) != len(telemetry) || seenSeals != seals {
		t.Fatalf("WAL holds %d/%d batches, %d/%d telemetry, %d/%d seals",
			len(seenBatches), len(bodies), len(seenTel), len(telemetry), seenSeals, seals)
	}
	want := fingerprint(t, ref)
	if live != want {
		t.Fatal("live store diverged from the WAL-ordered reference")
	}
	st = mustOpen(t, dir, opts)
	defer st.Close()
	if got := fingerprint(t, st.Seg()); got != want {
		t.Fatal("reopened store diverged from the WAL-ordered reference")
	}
}
