package durable

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// captureSnapshot returns the snapshot a checkpoint of st would write now.
func captureSnapshot(t testing.TB, st *Store) *snapshot {
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

// sampledSeries is a series with samples, so the series encodings hold
// samples and not only headers.
func sampledSeries(jobID int64) *trace.TimeSeries {
	return &trace.TimeSeries{JobID: jobID, IntervalSec: 0.1, PerGPU: [][]metrics.Sample{
		{{TimeSec: 0, Values: [metrics.NumMetrics]float64{1, 2, 3, 4, 5, 6}}, {TimeSec: 0.1}},
		nil,
	}}
}

// seriesTelemetry stages telemetry carrying a sampledSeries.
func seriesTelemetry(t testing.TB, st *Store, jobID int64) {
	t.Helper()
	per := []metrics.MetricSummaries{{metrics.SMUtil: {Min: 1, Mean: 2.5, Max: 3}}}
	if err := st.StageTelemetry(jobID, per, sampledSeries(jobID)); err != nil {
		t.Fatal(err)
	}
}

func encodeFormat2(t testing.TB, snap *snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeFormat2(&b, snap); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSnapshotRoundTrip: format 2 carries every shape of store state a
// checkpoint captures, bit for bit. Each encoding reads back to a snapshot
// that re-encodes to the same bytes, with the same header and ledger, and
// whose state restores to a store with the original's fingerprint and
// summary.
func TestSnapshotRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, st *Store)
		shape func(s *trace.SegStoreState) bool // the case built what it names
	}{
		{"empty", func(t *testing.T, st *Store) {}, func(s *trace.SegStoreState) bool {
			return len(s.Jobs) == 0 && s.Series == nil && s.Staged == nil
		}},
		{"series-and-staged", func(t *testing.T, st *Store) {
			seriesTelemetry(t, st, 3)      // joins the batch below: a series
			seriesTelemetry(t, st, 1<<40)  // never arrives: staged with a series
			stageTelemetry(t, st, 1<<40+1) // never arrives
			if err := st.StageTelemetry(1<<40+2, nil, nil); err != nil {
				t.Fatal(err) // staged with neither digests nor series
			}
			mustIngest(t, st, "b0", batchBody(t, 0, 20))
		}, func(s *trace.SegStoreState) bool { return len(s.Series) == 1 && len(s.Staged) == 3 }},
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
			for i, id := range []string{"", "plain", `quote"and\slash`, "<html>&amp;", "tab\tnewline\n", "ünïcode"} {
				mustIngest(t, st, id, batchBody(t, int64(i)*1000, 3))
			}
		}, func(s *trace.SegStoreState) bool { return len(s.Jobs) == 18 }},
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
			got := checkRoundTrip(t, snap)
			restored := trace.RestoreSegStore(testSegCfg, got.State)
			if a, b := fingerprint(t, restored), fingerprint(t, st.Seg()); a != b {
				t.Fatal("restored store's state differs from the original's")
			}
			if a, b := summaryBits(restored.Summary()), summaryBits(st.Seg().Summary()); a != b {
				t.Fatalf("summary\n got %s\nwant %s", a, b)
			}
		})
	}
	// Shapes no store exports but the format still carries: empty but
	// non-nil slices (which read back nil), and floats JSON cannot hold.
	t.Run("edge-shapes", func(t *testing.T) {
		weird := trace.JobRecord{
			JobID: math.MaxInt64, User: -1, SubmitSec: math.Copysign(0, -1),
			WaitSec: math.Inf(1), RunSec: math.Float64frombits(0x7ff8_0000_dead_beef),
			NumGPUs: 1, PerGPU: []metrics.MetricSummaries{},
		}
		weird.GPU[metrics.Power].Max = math.Inf(-1)
		for _, snap := range []*snapshot{
			{Applied: []AppliedBatch{}, State: &trace.SegStoreState{
				Jobs: []trace.JobRecord{}, Series: []*trace.TimeSeries{}, Staged: []trace.StagedEntry{},
			}},
			{Seg: snapConfig{DurationDays: math.SmallestNonzeroFloat64, SegmentJobs: -1}, NextSeq: math.MaxUint64,
				Chain: Chain{0: 1, chainSize - 1: 0xff}, State: &trace.SegStoreState{
					Jobs:   []trace.JobRecord{weird},
					Series: []*trace.TimeSeries{{PerGPU: [][]metrics.Sample{{}, nil}}},
					Staged: []trace.StagedEntry{{JobID: -7, PerGPU: []metrics.MetricSummaries{{}}}},
				}},
		} {
			checkRoundTrip(t, snap)
		}
	})
}

// checkRoundTrip encodes snap, reads it back, and requires the read
// snapshot to re-encode to the same bytes and carry the same header and
// ledger.
func checkRoundTrip(t *testing.T, snap *snapshot) *snapshot {
	t.Helper()
	enc := encodeFormat2(t, snap)
	got, err := readFormat2(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatalf("reading back %d bytes: %v", len(enc), err)
	}
	if re := encodeFormat2(t, got); !bytes.Equal(re, enc) {
		t.Fatalf("re-encoding differs (%d vs %d bytes)", len(re), len(enc))
	}
	if got.Seg != snap.Seg || got.NextSeq != snap.NextSeq || got.Chain != snap.Chain {
		t.Fatalf("header %+v/%d/%x, want %+v/%d/%x", got.Seg, got.NextSeq, got.Chain, snap.Seg, snap.NextSeq, snap.Chain)
	}
	if len(got.Applied) != len(snap.Applied) {
		t.Fatalf("%d ledger entries, want %d", len(got.Applied), len(snap.Applied))
	}
	for i := range got.Applied {
		if got.Applied[i] != snap.Applied[i] {
			t.Fatalf("ledger entry %d: %+v, want %+v", i, got.Applied[i], snap.Applied[i])
		}
	}
	return got
}

// TestOpenReadsDefaultLevelSnapshot: data dirs written before format 2 hold
// format-1 snapshots, gzip+JSON at the default level (the oldest) or at
// BestSpeed. Both must still open, and to the same store.
func TestOpenReadsDefaultLevelSnapshot(t *testing.T) {
	for _, level := range []int{gzip.DefaultCompression, gzip.BestSpeed} {
		t.Run(fmt.Sprintf("level=%d", level), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Sync: true}
			st := mustOpen(t, dir, opts)
			stageTelemetry(t, st, 3)
			seriesTelemetry(t, st, 1<<40)
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
				writeFormat1(t, path, snap, level)
				back, err := readSnapshot(path)
				if err != nil {
					t.Fatalf("format-1 snapshot unreadable: %v", err)
				}
				if !bytes.Equal(encodeFormat2(t, back), encodeFormat2(t, snap)) {
					t.Fatal("format-1 snapshot read back different contents")
				}
				rewritten++
			}
			if rewritten == 0 {
				t.Fatal("Close wrote no snapshot")
			}
			st = mustOpen(t, dir, opts)
			if got := fingerprint(t, st.Seg()); got != want {
				t.Fatal("store reopened from a format-1 snapshot diverged")
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// writeFormat1 replaces path with snap written the way format-1 writers
// did: one encoding/json document through a gzip writer at level.
func writeFormat1(t *testing.T, path string, snap *snapshot, level int) {
	t.Helper()
	var b bytes.Buffer
	zw, err := gzip.NewWriterLevel(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	v1 := snapshotFileV1{
		Format: 1, Seg: snap.Seg, NextSeq: snap.NextSeq, Chain: hex.EncodeToString(snap.Chain[:]),
		Applied: snap.Applied, State: snap.State,
	}
	if err := json.NewEncoder(zw).Encode(v1); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// blockSpans returns the byte range [start, end) of every block of a
// format-2 file, frame and CRC included, in file order.
func blockSpans(t *testing.T, b []byte) [][2]int {
	t.Helper()
	var spans [][2]int
	off := len(snapMagic)
	for off < len(b) {
		n := int(binary.LittleEndian.Uint64(b[off+1:]))
		spans = append(spans, [2]int{off, off + blockFrame + n + 4})
		off += blockFrame + n + 4
	}
	if len(spans) != int(blockEnd) || off != len(b) {
		t.Fatalf("%d blocks ending at %d of %d bytes, want %d", len(spans), off, len(b), blockEnd)
	}
	return spans
}

// TestSnapshotTornAndCorrupt: a format-2 snapshot torn at any byte offset,
// or with one byte flipped anywhere in any block, must fail to read, and
// Open must fall back a generation to the previous snapshot plus the WAL
// written since: the reference store's state, never wrong data.
func TestSnapshotTornAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Sync: true}
	st := mustOpen(t, dir, opts)
	ref := trace.NewSegStore(testSegCfg)
	stage := func(id int64) {
		seriesTelemetry(t, st, id)
		per := []metrics.MetricSummaries{{metrics.SMUtil: {Min: 1, Mean: 2.5, Max: 3}}}
		ref.StageTelemetry(id, per, sampledSeries(id))
	}
	ingest := func(id string, base int64, n int) {
		body := batchBody(t, base, n)
		mustIngest(t, st, id, body)
		ds, err := trace.ReadJSON(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		ref.AppendDataset(ds)
	}
	// The older generation, then the newest one: series, staged entries
	// and multi-GPU rows, kept small so every offset is cheap to try.
	ingest("a", 0, 3)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	stage(3000)
	stage(1 << 40)
	ingest("b", 3000, 4)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseNoSnapshot(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, ref)

	snap, err := loadLatestSnapshot(dir)
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	if len(snap.State.Series) != 1 || len(snap.State.Staged) != 1 || len(snap.State.Jobs) != 7 {
		t.Fatalf("newest snapshot holds %d jobs, %d series, %d staged; want 7, 1, 1",
			len(snap.State.Jobs), len(snap.State.Series), len(snap.State.Staged))
	}
	newest := filepath.Join(dir, snapFileName(snap.NextSeq))
	good, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, encodeFormat2(t, snap)) {
		t.Fatal("newest snapshot is not the format-2 encoding of what it holds")
	}

	// check installs b as the newest snapshot and requires both the read
	// to fail and Open to recover the reference state from the older one.
	check := func(what string, b []byte) {
		t.Helper()
		if err := os.WriteFile(newest, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshot(newest); err == nil {
			t.Fatalf("%s: readSnapshot accepted it", what)
		}
		st, err := Open(dir, testSegCfg, opts)
		if err != nil {
			t.Fatalf("%s: Open: %v", what, err)
		}
		got := fingerprint(t, st.Seg())
		if err := st.CloseNoSnapshot(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: recovered a store that differs from the reference", what)
		}
	}
	for n := 0; n < len(good); n++ {
		check(fmt.Sprintf("torn at %d of %d", n, len(good)), good[:n])
	}
	check("trailing byte", append(append([]byte(nil), good...), 0))
	for k, span := range blockSpans(t, good) {
		// The tag, the length's low byte, the first payload byte (or the
		// CRC's, for the empty end block) and the CRC's last byte.
		for _, off := range []int{span[0], span[0] + 1, span[0] + blockFrame, span[1] - 1} {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x40
			check(fmt.Sprintf("block %d: byte %d flipped", k+1, off), bad)
		}
	}
	// The intact file still opens to the reference.
	if err := os.WriteFile(newest, good, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, testSegCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseNoSnapshot()
	if fingerprint(t, st.Seg()) != want {
		t.Fatal("the intact snapshot opened to a store that differs from the reference")
	}
}
