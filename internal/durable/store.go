package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Store wraps a trace.SegStore with write-ahead logging, snapshots and an
// idempotency ledger. Two mutexes split the work:
//
//   - mu covers only the commit. Every mutation admits, appends the
//     operation to the WAL (fsync in sync mode) and applies it to the
//     in-memory store under mu. The WAL append is the commit point — an
//     operation whose record reached disk replays on recovery even if the
//     process died before applying it; one that didn't is as if it never
//     happened, and the client's retry covers it. Decoding an ingest body
//     happens before mu is taken.
//   - ckpt serializes checkpoints and is always taken before mu. A
//     checkpoint captures the state under mu (ExportState, the ledger, the
//     WAL position, a WAL flush) and then encodes, compresses, fsyncs,
//     renames and prunes with mu released, so commits continue while the
//     snapshot is written.
//
// Reads go straight to the SegStore (via Seg) under its own lock; queries
// never wait on the WAL.
type Store struct {
	ckpt sync.Mutex
	mu   sync.Mutex
	// seg is written once in Open and read lock-free afterwards (Seg,
	// Backlog): the pointer never changes and SegStore has its own lock.
	seg     *trace.SegStore
	cfg     trace.SegConfig
	w       *wal // guarded by mu
	dir     string
	opts    Options
	applied map[string]Outcome // guarded by mu
	dirty   int                // guarded by mu; jobs applied since the last snapshot
	closed  bool               // guarded by mu
}

// Options configures durability behavior.
type Options struct {
	// Sync fsyncs every WAL append before acking — ack-implies-durable.
	// Off, the OS flushes on its schedule: a process kill loses nothing
	// (the page cache survives), a machine crash can lose the unsynced
	// suffix. The chaos harness runs with Sync on.
	Sync bool
	// RotateBytes is the WAL file rotation threshold; 0 means
	// DefaultRotateBytes.
	RotateBytes int64
	// SnapshotJobs triggers an automatic snapshot after this many applied
	// jobs; 0 disables automatic snapshots (Close still writes one).
	SnapshotJobs int
	// MaxJobs bounds the total stored jobs; 0 means unbounded. Batches
	// that would exceed it are rejected with *trace.CapacityError before
	// anything is logged.
	MaxJobs int
	// Chaos arms failure injection; nil in production.
	Chaos *Chaos
}

// Outcome is what an ingest batch produced — returned verbatim when the
// same batch ID is submitted again.
type Outcome struct {
	Seq  uint64 // WAL sequence that committed the batch
	Jobs int    // jobs the batch added
}

// DecodeError marks a malformed ingest body: the request is at fault, not
// the server, and retrying it unchanged cannot succeed.
type DecodeError struct{ Err error }

func (e *DecodeError) Error() string { return e.Err.Error() }
func (e *DecodeError) Unwrap() error { return e.Err }

// telemetryRecord is the WAL payload of KindTelemetry.
type telemetryRecord struct {
	JobID  int64                     `json:"job_id"`
	PerGPU []metrics.MetricSummaries `json:"per_gpu,omitempty"`
	Series *trace.TimeSeries         `json:"series,omitempty"`
}

// Open recovers (or initializes) a durable store in dir: load the newest
// readable snapshot, rebuild the SegStore from it, replay the WAL suffix,
// and position the log for appending. The returned store is exactly the
// store that would exist had every acked operation been applied to a fresh
// server in order — the property the chaos harness verifies bit-for-bit.
func Open(dir string, cfg trace.SegConfig, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, dir: dir, opts: opts, applied: make(map[string]Outcome)}

	snap, err := loadLatestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	fromSeq := uint64(0)
	var fromChain Chain
	if snap != nil {
		got := trace.SegConfig(snap.Seg)
		if got != cfg {
			return nil, fmt.Errorf("durable: data dir was written with config %+v, not %+v — refusing to resume", got, cfg)
		}
		s.seg, err = trace.RestoreSegStore(cfg, snap.State)
		if err != nil {
			return nil, err
		}
		for _, ab := range snap.Applied {
			s.applied[ab.ID] = Outcome{Seq: ab.Seq, Jobs: ab.Jobs}
		}
		fromSeq = snap.NextSeq
		fromChain, _ = decodeChain(snap.Chain) // validated by readSnapshot
	} else {
		s.seg = trace.NewSegStore(cfg)
	}

	state, err := replayWAL(dir, fromSeq, fromChain, s.applyRecord)
	if err != nil {
		return nil, err
	}
	s.w, err = openWALForAppend(dir, state.tail, state.validBytes, state.nextSeq, state.chain, opts.Sync, opts.RotateBytes, opts.Chaos)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// applyRecord replays one WAL record into the store during recovery. Every
// record was admitted before it was logged, so replay applies
// unconditionally — re-checking MaxJobs here would turn a lowered bound
// into silent data loss.
func (s *Store) applyRecord(rec Record) error {
	switch rec.Kind {
	case KindBatch:
		id, body, err := decodeBatchPayload(rec.Payload)
		if err != nil {
			return err
		}
		ds, err := trace.ReadJSON(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("durable: acked batch no longer decodes: %w", err)
		}
		s.seg.AppendDataset(ds)
		//lint:allow lockguard recovery replay runs before the store is published; Open holds exclusive ownership
		s.applied[id] = Outcome{Seq: rec.Seq, Jobs: len(ds.Jobs)}
		//lint:allow lockguard recovery replay runs before the store is published; Open holds exclusive ownership
		s.dirty += len(ds.Jobs)
	case KindTelemetry:
		var tr telemetryRecord
		if err := json.Unmarshal(rec.Payload, &tr); err != nil {
			return fmt.Errorf("durable: acked telemetry no longer decodes: %w", err)
		}
		s.seg.StageTelemetry(tr.JobID, tr.PerGPU, tr.Series)
	case KindSeal:
		s.seg.SealTail()
	case KindCompact:
		s.seg.Compact()
	default:
		return fmt.Errorf("durable: unknown WAL record kind %d", rec.Kind)
	}
	return nil
}

// encodeBatchPayload frames a KindBatch payload: u16 batch-ID length, the
// ID, then the raw JSON body exactly as received.
func encodeBatchPayload(id string, body []byte) ([]byte, error) {
	if len(id) > 1<<16-1 {
		return nil, &DecodeError{Err: fmt.Errorf("durable: batch ID longer than %d bytes", 1<<16-1)}
	}
	p := make([]byte, 0, 2+len(id)+len(body))
	p = binary.BigEndian.AppendUint16(p, uint16(len(id)))
	p = append(p, id...)
	p = append(p, body...)
	return p, nil
}

func decodeBatchPayload(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("durable: short batch payload")
	}
	n := int(binary.BigEndian.Uint16(p))
	if len(p) < 2+n {
		return "", nil, fmt.Errorf("durable: batch payload shorter than its ID")
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

// IngestBatch commits one ingest batch: decode, admit against MaxJobs, log,
// apply. The batch ID makes it idempotent — a replayed ID returns the
// recorded outcome with duplicate=true and changes nothing, even if this
// copy of the body is malformed, which is what lets the client retry
// blindly after an ambiguous failure. Decode failures return *DecodeError
// (HTTP 400); admission failures *trace.CapacityError (HTTP 507); neither is
// logged. The batch that takes the store past Options.SnapshotJobs writes
// the checkpoint before it returns, and a checkpoint error comes back with
// its (committed) outcome.
func (s *Store) IngestBatch(id string, body []byte) (out Outcome, dup bool, err error) {
	// Decoding is most of a batch's CPU and touches no store state, so it
	// runs before the commit lock.
	ds, decErr := trace.ReadJSON(bytes.NewReader(body))
	// Deferred before the unlock below, so it runs after mu is released.
	checkpointDue := false
	defer func() {
		if checkpointDue {
			err = s.autoCheckpoint()
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Outcome{}, false, fmt.Errorf("durable: store is closed")
	}
	if out, ok := s.applied[id]; ok {
		return out, true, nil
	}
	if decErr != nil {
		return Outcome{}, false, &DecodeError{Err: decErr}
	}
	if s.opts.MaxJobs > 0 {
		if stored := s.seg.Len(); stored+len(ds.Jobs) > s.opts.MaxJobs {
			return Outcome{}, false, &trace.CapacityError{Stored: stored, Batch: len(ds.Jobs), Max: s.opts.MaxJobs}
		}
	}
	payload, err := encodeBatchPayload(id, body)
	if err != nil {
		return Outcome{}, false, err
	}
	seq, err := s.w.Append(KindBatch, payload)
	if err != nil {
		return Outcome{}, false, err
	}
	s.opts.Chaos.hit("apply")
	s.seg.AppendDataset(ds)
	out = Outcome{Seq: seq, Jobs: len(ds.Jobs)}
	s.applied[id] = out
	s.dirty += len(ds.Jobs)
	checkpointDue = s.checkpointDueLocked()
	return out, false, nil
}

// StageTelemetry logs and stages one monitoring-epilog record (the
// nvidia-smi side of the §II join) so parked telemetry survives a crash
// just like ingested jobs do.
func (s *Store) StageTelemetry(jobID int64, perGPU []metrics.MetricSummaries, ts *trace.TimeSeries) error {
	payload, err := json.Marshal(telemetryRecord{JobID: jobID, PerGPU: perGPU, Series: ts})
	if err != nil {
		return &DecodeError{Err: err}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store is closed")
	}
	if _, err := s.w.Append(KindTelemetry, payload); err != nil {
		return err
	}
	s.opts.Chaos.hit("apply")
	s.seg.StageTelemetry(jobID, perGPU, ts)
	return nil
}

// SealTail logs and applies a manual tail seal. Geometry is part of
// recovered state (summary moments are merge-order sensitive), so admin
// operations go through the WAL like everything else.
func (s *Store) SealTail() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store is closed")
	}
	if _, err := s.w.Append(KindSeal, nil); err != nil {
		return err
	}
	s.opts.Chaos.hit("sealapply")
	s.seg.SealTail()
	return nil
}

// Compact logs and applies a manual compaction.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store is closed")
	}
	if _, err := s.w.Append(KindCompact, nil); err != nil {
		return err
	}
	s.opts.Chaos.hit("compactapply")
	s.seg.Compact()
	return nil
}

// Snapshot forces a checkpoint now, waiting for one already in progress.
func (s *Store) Snapshot() error {
	s.ckpt.Lock()
	defer s.ckpt.Unlock()
	return s.checkpoint(false)
}

func (s *Store) checkpointDueLocked() bool {
	return s.opts.SnapshotJobs > 0 && s.dirty >= s.opts.SnapshotJobs
}

// autoCheckpoint writes the checkpoint a commit found due. If another
// checkpoint is being written this batch skips it; that one already covers
// most of what is dirty, and the next batch past the threshold retries.
func (s *Store) autoCheckpoint() error {
	if !s.ckpt.TryLock() {
		return nil
	}
	defer s.ckpt.Unlock()
	return s.checkpoint(true)
}

// checkpoint captures a snapshot under mu and writes it with mu released.
// The caller holds ckpt. An automatic checkpoint (auto) is dropped if an
// earlier one already reset the dirty count; a failed write restores the
// count so the next batch retries.
func (s *Store) checkpoint(auto bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if auto {
			return nil // Close wrote the final snapshot
		}
		return fmt.Errorf("durable: store is closed")
	}
	if auto && !s.checkpointDueLocked() {
		s.mu.Unlock()
		return nil
	}
	snap, jobs, err := s.captureLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := writeSnapshot(s.dir, snap, s.opts.Chaos); err != nil {
		s.mu.Lock()
		s.dirty += jobs
		s.mu.Unlock()
		return err
	}
	return nil
}

// captureLocked takes everything a snapshot needs while commits are
// excluded: the store state, the idempotency ledger and the WAL position.
// It returns the jobs the snapshot will cover beyond the previous one.
// Records appended after the capture all have seq >= NextSeq, so they
// replay on top of this snapshot and pruning never deletes them.
func (s *Store) captureLocked() (*snapshotFile, int, error) {
	applied := make([]AppliedBatch, 0, len(s.applied))
	for id, out := range s.applied {
		applied = append(applied, AppliedBatch{ID: id, Seq: out.Seq, Jobs: out.Jobs})
	}
	sort.Slice(applied, func(a, b int) bool { return applied[a].ID < applied[b].ID })
	snap := &snapshotFile{
		Format:  snapshotFormat,
		Seg:     snapConfig(s.cfg),
		NextSeq: s.w.nextSeq,
		Chain:   encodeChain(s.w.chain),
		Applied: applied,
		State:   s.seg.ExportState(),
	}
	// The snapshot claims coverage of every seq below NextSeq; those
	// records must not be lost from the page cache after their files are
	// pruned, so flush the WAL first even in no-sync mode.
	if err := s.w.Sync(); err != nil {
		return nil, 0, err
	}
	jobs := s.dirty
	s.dirty = 0
	return snap, jobs, nil
}

// Close drains the store: flush the WAL, write a final snapshot (making the
// next Open a pure snapshot load), and close the log. It waits for a
// checkpoint in progress. Close never compacts or seals — compaction
// changes summary merge order, and a drain must not change any query
// result.
func (s *Store) Close() error {
	s.ckpt.Lock()
	defer s.ckpt.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	snap, _, snapErr := s.captureLocked()
	closeErr := s.w.Close()
	s.mu.Unlock()
	if snapErr == nil {
		snapErr = writeSnapshot(s.dir, snap, s.opts.Chaos)
	}
	if snapErr != nil {
		return snapErr
	}
	return closeErr
}

// CloseNoSnapshot flushes and closes the WAL without writing a checkpoint,
// leaving recovery to replay the log. A clean shutdown wants Close; this
// exists so recovery tests and benchmarks can manufacture replay-heavy data
// dirs without killing a process.
func (s *Store) CloseNoSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.w.Close()
}

// Seg exposes the underlying SegStore for queries. Callers must not mutate
// it directly — mutations that bypass the WAL are invisible to recovery.
func (s *Store) Seg() *trace.SegStore { return s.seg }

// Backlog returns the unsealed work the server is carrying: tail jobs not
// yet folded into a sealed segment plus parked telemetry awaiting its join.
// The ingest handler sheds load (HTTP 429) when this exceeds its bound.
func (s *Store) Backlog() int {
	return s.seg.TailJobs() + s.seg.StagedJobs()
}

// WALBytes reports cumulative record bytes appended by this process — the
// denominator of the durability-overhead numbers in EXPERIMENTS.md.
func (s *Store) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.totalBytes
}

// ChainHead returns the current hash-chain value — the commitment a
// verifier would hold to audit the log (ROADMAP item 2).
func (s *Store) ChainHead() Chain {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.chain
}
