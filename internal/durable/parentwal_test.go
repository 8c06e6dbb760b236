package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/trace"
)

// TestOpenReplaysParentWAL: testdata/parent-wal holds the WAL of a data dir
// that IngestBatch wrote at commit 58ceaf6, when trace.ReadJSON was the
// encoding/json reader, closed without a checkpoint. Its seven batches
// (batchDS bodies) lean on what that reader accepted: case-folded keys,
// Unicode-folded ("jobſ") and escaped ("RunSec") keys, unknown fields
// nested at every level, bytes after the dataset, and duplicate keys. Open
// must replay every one into the store the encoding/json decodes of the
// same bodies build: same state, same /v1/summary digest, same figures.
func TestOpenReplaysParentWAL(t *testing.T) {
	dir := t.TempDir()
	const wal = "wal-0000000000000000.log"
	data, err := os.ReadFile(filepath.Join("testdata", "parent-wal", wal))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, wal), data, 0o644); err != nil {
		t.Fatal(err)
	}

	ref := trace.NewSegStore(testSegCfg)
	batches := 0
	if _, err := replayWAL(dir, 0, Chain{}, func(rec Record) error {
		_, body, err := decodeBatchPayload(rec.Payload)
		if err != nil {
			return err
		}
		ds, err := encodingJSONDataset(body)
		if err != nil {
			return err
		}
		ref.AppendDataset(ds)
		batches++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if batches != 7 || ref.Len() != 123 {
		t.Fatalf("testdata holds %d batches of %d jobs, want 7 of 123", batches, ref.Len())
	}

	st := mustOpen(t, dir, Options{})
	defer st.CloseNoSnapshot()
	if a, b := fingerprint(t, st.Seg()), fingerprint(t, ref); a != b {
		t.Fatal("replayed store diverged from the encoding/json decodes")
	}
	if a, b := summaryBits(st.Seg().Summary()), summaryBits(ref.Summary()); a != b {
		t.Fatalf("summary %s, want %s", a, b)
	}
	if figures(st.Seg()) != figures(ref) {
		t.Fatal("replayed store's figures diverged from the encoding/json decodes")
	}
	// The folded, escaped and duplicated keys were matched: every batchDS
	// job runs at least 60 s, and the duplicate "User":99 lost to the
	// real user, which is below 17.
	for _, j := range st.Seg().ExportState().Jobs {
		if j.RunSec < 60 || j.User >= 17 {
			t.Fatalf("job %d decoded as RunSec %v, User %d", j.JobID, j.RunSec, j.User)
		}
	}
}

// TestOpenParentDir: testdata/parent-dir is a data dir that commit f97a11e
// wrote, when the summary digest depended on segment geometry, closed
// without a final checkpoint. Its format-1 snapshot carries two segment
// digests, the first produced by a compaction; its WAL suffix holds a seal
// and a compaction record; figures.txt is the /v1/figures body (after the
// header) that version served from the dir. Open must read it, serve the
// same figures byte for byte, leave no recovered job in the tail, and hold
// the summary of a fresh store fed the same operations.
func TestOpenParentDir(t *testing.T) {
	dir := copyParentDir(t)
	// The config the dir was written with.
	cfg := trace.SegConfig{DurationDays: 7, SegmentJobs: 64, MaxSegments: 4}
	st, err := Open(dir, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseNoSnapshot()
	if st.Seg().Len() != 230 || st.Seg().TailJobs() != 0 || st.Seg().StagedJobs() != 1 {
		t.Fatalf("opened %d jobs, %d in the tail, %d staged; want 230, 0, 1",
			st.Seg().Len(), st.Seg().TailJobs(), st.Seg().StagedJobs())
	}
	checkParentDirStore(t, st.Seg(), cfg)
}

// TestOpenParentDirIgnoresMaxSegments: the store ignores MaxSegments, so a
// data dir opens under any value of it, including one other than the
// value its format-1 snapshot recorded (4).
func TestOpenParentDirIgnoresMaxSegments(t *testing.T) {
	cfg := trace.SegConfig{DurationDays: 7, SegmentJobs: 64, MaxSegments: 64}
	st, err := Open(copyParentDir(t), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseNoSnapshot()
	checkParentDirStore(t, st.Seg(), cfg)
}

// TestOpenParentDirUpgrade: a format-1 data dir upgraded by one checkpoint
// reopens from the format-2 snapshot alone — no format-1 file, no WAL —
// with the same state, summary and figures, and again after a restart
// that writes format 2 over format 2.
func TestOpenParentDirUpgrade(t *testing.T) {
	cfg := trace.SegConfig{DurationDays: 7, SegmentJobs: 64}
	st, err := Open(copyParentDir(t), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snap := captureSnapshot(t, st)
	if err := st.CloseNoSnapshot(); err != nil {
		t.Fatal(err)
	}
	name := snapFileName(snap.NextSeq)
	data, err := os.ReadFile(filepath.Join(st.dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(snapMagic)) {
		t.Fatalf("the checkpoint wrote %q..., not format 2", data[:min(8, len(data))])
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for restart := 0; restart < 2; restart++ {
		st, err := Open(dir, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkParentDirStore(t, st.Seg(), cfg)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func copyParentDir(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "parent-dir")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkParentDirStore requires st to hold the state and summary of a fresh
// store fed the operations that wrote testdata/parent-dir (minus its seals
// and compactions), and to render figures.txt byte for byte.
func checkParentDirStore(t *testing.T, st *trace.SegStore, cfg trace.SegConfig) {
	t.Helper()
	ref := trace.NewSegStore(cfg)
	stage := func(id int64) {
		per := []metrics.MetricSummaries{{metrics.SMUtil: {Min: 1, Mean: 2.5, Max: 3}}}
		ref.StageTelemetry(id, per, &trace.TimeSeries{JobID: id, IntervalSec: 0.1})
	}
	ingest := func(base int64, n int) {
		ds, err := trace.ReadJSON(bytes.NewReader(batchBody(t, base, n)))
		if err != nil {
			t.Fatal(err)
		}
		ref.AppendDataset(ds)
	}
	stage(3)
	stage(1<<40 + 1)
	ingest(0, 30)
	ingest(1000, 30)
	ingest(2000, 30)
	ingest(3000, 80)
	ingest(4000, 40)
	stage(5004)
	ingest(5000, 20)

	if a, b := fingerprint(t, st), fingerprint(t, ref); a != b {
		t.Fatal("opened store's state differs from the operations that wrote it")
	}
	if a, b := summaryBits(st.Summary()), summaryBits(ref.Summary()); a != b {
		t.Fatalf("summary\n got %s\nwant %s", a, b)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent-dir", "figures.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report.RenderReport(&got, core.CharacterizeSeg(st.Snapshot(), 2)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("figures differ from the recorded body (%d vs %d bytes)", got.Len(), len(want))
	}
}

// encodingJSONDataset decodes an ingest body the way the parent commit's
// trace.ReadJSON did, with encoding/json.
func encodingJSONDataset(body []byte) (*trace.Dataset, error) {
	var wire struct {
		DurationDays float64             `json:"duration_days"`
		Jobs         []trace.JobRecord   `json:"jobs"`
		Series       []*trace.TimeSeries `json:"series,omitempty"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wire); err != nil {
		return nil, err
	}
	ds := trace.NewDataset(wire.DurationDays)
	ds.Jobs = wire.Jobs
	for _, ts := range wire.Series {
		ds.AttachSeries(ts)
	}
	return ds, ds.Validate()
}
