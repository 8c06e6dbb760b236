package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

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
	gotSum, err := json.Marshal(st.Seg().Summary())
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := json.Marshal(ref.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSum, wantSum) {
		t.Fatalf("summary %s, want %s", gotSum, wantSum)
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
