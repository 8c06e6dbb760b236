package durable

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// captureSnapshot returns the snapshot a checkpoint of st would write now.
func captureSnapshot(t *testing.T, st *Store) *snapshotFile {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	snap, _, err := st.captureLocked()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func stageTelemetry(t *testing.T, st *Store, jobID int64) {
	t.Helper()
	per := []metrics.MetricSummaries{{metrics.SMUtil: {Min: 1, Mean: 2.5, Max: 3}}}
	ts := &trace.TimeSeries{JobID: jobID, IntervalSec: 0.1}
	if err := st.StageTelemetry(jobID, per, ts); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeSnapshotMatchesEncodingJSON: encoding/json is the executable
// spec of the snapshot format. The streamed encoder must produce exactly
// json.NewEncoder(w).Encode(snap)'s bytes on every shape of store state.
func TestEncodeSnapshotMatchesEncodingJSON(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, st *Store)
		shape func(s *trace.SegStoreState) bool // the case built what it names
	}{
		{"empty", func(t *testing.T, st *Store) {}, func(s *trace.SegStoreState) bool {
			return len(s.Jobs) == 0 && s.Series == nil && s.Staged == nil
		}},
		{"series-and-staged", func(t *testing.T, st *Store) {
			stageTelemetry(t, st, 3)       // joins the batch below: a series
			stageTelemetry(t, st, 1<<40+1) // never arrives: stays staged
			mustIngest(t, st, "b0", batchBody(t, 0, 20))
		}, func(s *trace.SegStoreState) bool { return len(s.Series) == 1 && len(s.Staged) == 1 }},
		{"sealed", func(t *testing.T, st *Store) {
			for i := 0; i < 6; i++ {
				mustIngest(t, st, fmt.Sprintf("b%d", i), batchBody(t, int64(i)*1000, 70))
			}
			if err := st.SealTail(); err != nil {
				t.Fatal(err)
			}
			mustIngest(t, st, "tail", batchBody(t, 9000, 5))
		}, func(s *trace.SegStoreState) bool { return len(s.Jobs) == 6*70+5 }},
		{"applied-ledger", func(t *testing.T, st *Store) {
			// IDs needing JSON escaping, including encoding/json's HTML
			// escapes.
			for i, id := range []string{"plain", `quote"and\slash`, "<html>&amp;", "tab\tnewline\n", "ünïcode"} {
				mustIngest(t, st, id, batchBody(t, int64(i)*1000, 3))
			}
		}, func(s *trace.SegStoreState) bool { return len(s.Jobs) == 15 }},
		{"10k-jobs", func(t *testing.T, st *Store) {
			for i := 0; i < 10; i++ {
				mustIngest(t, st, fmt.Sprintf("big-%d", i), batchBody(t, int64(i)*1000, 1000))
			}
			stageTelemetry(t, st, 1<<40)
		}, func(s *trace.SegStoreState) bool { return len(s.Jobs) >= 10000 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := mustOpen(t, t.TempDir(), Options{})
			defer st.CloseNoSnapshot()
			tc.build(t, st)
			snap := captureSnapshot(t, st)
			if !tc.shape(snap.State) {
				t.Fatalf("case built the wrong shape: %d jobs, %d series, %d staged",
					len(snap.State.Jobs), len(snap.State.Series), len(snap.State.Staged))
			}
			if wantLedger := len(snap.State.Jobs) > 0; (len(snap.Applied) > 0) != wantLedger {
				t.Fatalf("applied ledger has %d entries for %d jobs", len(snap.Applied), len(snap.State.Jobs))
			}

			checkEncodeSnapshot(t, snap)
		})
	}
	// Shapes no store exports but the struct tags still define: nil and
	// empty-but-non-nil slices, a nil job slice, no state at all.
	t.Run("edge-shapes", func(t *testing.T) {
		for _, snap := range []*snapshotFile{
			{Applied: []AppliedBatch{}, State: &trace.SegStoreState{
				Series: []*trace.TimeSeries{}, Staged: []trace.StagedEntry{},
			}},
			{State: &trace.SegStoreState{Series: []*trace.TimeSeries{nil}}},
			{},
		} {
			checkEncodeSnapshot(t, snap)
		}
	})
}

func checkEncodeSnapshot(t *testing.T, snap *snapshotFile) {
	t.Helper()
	var want, got bytes.Buffer
	if err := json.NewEncoder(&want).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := encodeSnapshot(&got, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		n := 0
		for n < min(got.Len(), want.Len()) && got.Bytes()[n] == want.Bytes()[n] {
			n++
		}
		t.Fatalf("streamed snapshot differs from encoding/json at byte %d of %d/%d:\n got …%.80s\nwant …%.80s",
			n, got.Len(), want.Len(), got.Bytes()[n:], want.Bytes()[n:])
	}
}

// TestOpenReadsDefaultLevelSnapshot: data dirs written before snapshots
// switched to gzip.BestSpeed hold default-level snapshots; they must still
// open, and to the same store.
func TestOpenReadsDefaultLevelSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Sync: true}
	st := mustOpen(t, dir, opts)
	stageTelemetry(t, st, 3)
	for i := 0; i < 3; i++ {
		mustIngest(t, st, fmt.Sprintf("b%d", i), batchBody(t, int64(i)*1000, 100))
	}
	want := fingerprint(t, st.Seg())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for _, e := range ents {
		if _, ok := parseSnapName(e.Name()); !ok {
			continue
		}
		path := filepath.Join(dir, e.Name())
		snap, err := readSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		// The gzip header's XFL byte records the level class: 4 for the
		// fastest level, 0 for the default.
		if xfl := gzipXFL(t, path); xfl != 4 {
			t.Fatalf("%s: XFL %d, want 4 (BestSpeed)", e.Name(), xfl)
		}
		writeDefaultLevelSnapshot(t, path, snap)
		if xfl := gzipXFL(t, path); xfl != 0 {
			t.Fatalf("%s: rewritten XFL %d, want 0 (default level)", e.Name(), xfl)
		}
		if _, err := readSnapshot(path); err != nil {
			t.Fatalf("default-level snapshot unreadable: %v", err)
		}
		rewritten++
	}
	if rewritten == 0 {
		t.Fatal("Close wrote no snapshot")
	}
	st = mustOpen(t, dir, opts)
	if got := fingerprint(t, st.Seg()); got != want {
		t.Fatal("store reopened from a default-level snapshot diverged")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeDefaultLevelSnapshot replaces path with snap written the way earlier
// versions did: one encoding/json document through a default-level gzip
// writer.
func writeDefaultLevelSnapshot(t *testing.T, path string, snap *snapshotFile) {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if err := json.NewEncoder(zw).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func gzipXFL(t *testing.T, path string) byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 10 {
		t.Fatalf("%s: %d bytes, shorter than a gzip header", path, len(b))
	}
	return b[8]
}
