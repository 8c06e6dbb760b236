package durable

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Snapshots are the checkpoint side of recovery: the complete logical store
// state (see trace.SegStoreState) plus everything needed to resume the WAL —
// the next sequence number, the chain value at that point, and the applied
// batch-ID ledger for idempotency. A snapshot at nextSeq N makes every WAL
// record with seq < N redundant; recovery loads the newest readable snapshot
// and replays only the suffix.
//
// Snapshots are written to a temp file, fsynced, renamed into place and the
// directory synced — a torn snapshot is either invisible (tmp never renamed)
// or detectably corrupt (gzip checksums fail), and recovery falls back to
// the previous snapshot plus a longer WAL replay.

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"

	snapshotFormat = 1
)

// AppliedBatch is one entry of the idempotency ledger: a client batch ID,
// the WAL sequence that committed it, and the job count it added (the
// outcome a duplicate submission gets back).
type AppliedBatch struct {
	ID   string `json:"id"`
	Seq  uint64 `json:"seq"`
	Jobs int    `json:"jobs"`
}

// snapConfig mirrors trace.SegConfig with tags; recovery refuses to resume a
// data directory under a different config. DurationDays normalizes the
// figures, so resuming under another value would silently change every
// answer over the recovered jobs; the seal threshold and the ignored
// MaxSegments change no answer but are held to the recorded values alike, so
// a data directory keeps the one config it was written with.
type snapConfig struct {
	DurationDays float64 `json:"duration_days"`
	SegmentJobs  int     `json:"segment_jobs"`
	MaxSegments  int     `json:"max_segments"`
}

type snapshotFile struct {
	Format  int                  `json:"format"`
	Seg     snapConfig           `json:"seg"`
	NextSeq uint64               `json:"next_seq"`
	Chain   string               `json:"chain"` // hex of the chain value at NextSeq
	Applied []AppliedBatch       `json:"applied,omitempty"`
	State   *trace.SegStoreState `json:"state"`
}

func snapFileName(nextSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, nextSeq, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 16, 64)
	return seq, err == nil
}

// writeSnapshot persists snap atomically and prunes files it supersedes:
// older snapshots and WAL files whose every record is below snap.NextSeq.
// Ordering is crash-safe — the new snapshot is durable (renamed + dir
// synced) before anything is deleted, so every intermediate state recovers.
//
// It runs with the Store's commit mutex released (the caller holds only the
// checkpoint mutex), so WAL appends and rotations continue meanwhile. That
// is safe because snap was captured under the commit mutex: every record
// appended since has seq >= snap.NextSeq, lives in a file pruneObsolete
// keeps, and replays on top of this snapshot.
//
// The gzip level is BestSpeed: it compresses this data several times
// faster than the default level for a somewhat larger file, and any level
// reads back through the same gzip reader.
func writeSnapshot(dir string, snap *snapshotFile, chaos *Chaos) error {
	name := snapFileName(snap.NextSeq)
	tmp := filepath.Join(dir, name+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	if err := encodeSnapshot(zw, snap); err != nil {
		f.Close()
		return fmt.Errorf("durable: encoding snapshot: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	chaos.hit("snaptmp")
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	chaos.hit("snaprename")
	if err := pruneObsolete(dir); err != nil {
		return err
	}
	chaos.hit("snapprune")
	return syncDir(dir)
}

// encodeSnapshot writes snap as the bytes json.NewEncoder(w).Encode(snap)
// produces, but one field, job, series and staged entry at a time
// through a buffered writer, so a checkpoint never holds the whole document
// in memory. The keys and omitempty rules mirror the struct tags of
// snapshotFile and trace.SegStoreState; the differential test pins the
// output to encoding/json's.
func encodeSnapshot(w io.Writer, snap *snapshotFile) error {
	e := &snapEncoder{w: bufio.NewWriterSize(w, 64<<10)}
	e.enc = json.NewEncoder(&e.buf)
	e.raw(`{"format":`)
	e.value(snap.Format)
	e.raw(`,"seg":`)
	e.value(snap.Seg)
	e.raw(`,"next_seq":`)
	e.value(snap.NextSeq)
	e.raw(`,"chain":`)
	e.value(snap.Chain)
	if len(snap.Applied) > 0 {
		e.raw(`,"applied":`)
		e.array(len(snap.Applied), func(i int) any { return &snap.Applied[i] })
	}
	e.raw(`,"state":`)
	if st := snap.State; st == nil {
		e.raw("null")
	} else {
		e.raw(`{"jobs":`)
		if st.Jobs == nil {
			e.raw("null")
		} else {
			e.array(len(st.Jobs), func(i int) any { return &st.Jobs[i] })
		}
		if len(st.Series) > 0 {
			e.raw(`,"series":`)
			e.array(len(st.Series), func(i int) any { return st.Series[i] })
		}
		if len(st.Staged) > 0 {
			e.raw(`,"staged":`)
			e.array(len(st.Staged), func(i int) any { return &st.Staged[i] })
		}
		e.raw("}")
	}
	e.raw("}\n")
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// snapEncoder is encodeSnapshot's writer; the first error sticks and turns
// every later write into a no-op.
type snapEncoder struct {
	w   *bufio.Writer
	buf bytes.Buffer // one encoded value, reused
	enc *json.Encoder
	err error
}

func (e *snapEncoder) raw(s string) {
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

// value writes v as encoding/json would inside a larger document: Encode's
// output without its trailing newline.
func (e *snapEncoder) value(v any) {
	if e.err != nil {
		return
	}
	e.buf.Reset()
	if e.err = e.enc.Encode(v); e.err == nil {
		_, e.err = e.w.Write(e.buf.Bytes()[:e.buf.Len()-1])
	}
}

func (e *snapEncoder) array(n int, elem func(i int) any) {
	e.raw("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			e.raw(",")
		}
		e.value(elem(i))
	}
	e.raw("]")
}

// pruneObsolete deletes files recovery can no longer need. The two newest
// snapshots are retained — keeping the previous one means a snapshot that
// turns out to be unreadable is not a single point of failure — and WAL
// files are deleted only when wholly below the OLDEST retained snapshot's
// coverage (a WAL file is wholly below seq S when the next file's first
// sequence is <= S: all its records are then < S).
func pruneObsolete(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var snapNames, walNames []string
	for _, e := range ents {
		n := e.Name()
		if _, ok := parseSnapName(n); ok {
			snapNames = append(snapNames, n)
		} else if _, ok := parseWALName(n); ok {
			walNames = append(walNames, n)
		}
	}
	sort.Slice(snapNames, func(a, b int) bool {
		sa, _ := parseSnapName(snapNames[a])
		sb, _ := parseSnapName(snapNames[b])
		return sa > sb // newest first
	})
	const retain = 2
	for _, n := range snapNames[min(retain, len(snapNames)):] {
		if err := os.Remove(filepath.Join(dir, n)); err != nil {
			return err
		}
	}
	if len(snapNames) == 0 {
		return nil
	}
	coveredSeq, _ := parseSnapName(snapNames[min(retain, len(snapNames))-1])
	sort.Slice(walNames, func(a, b int) bool {
		sa, _ := parseWALName(walNames[a])
		sb, _ := parseWALName(walNames[b])
		return sa < sb
	})
	for i := 0; i+1 < len(walNames); i++ {
		next, _ := parseWALName(walNames[i+1])
		if next <= coveredSeq {
			if err := os.Remove(filepath.Join(dir, walNames[i])); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadLatestSnapshot returns the newest readable snapshot in dir, or nil if
// none exists. Unreadable snapshots (torn by a crash mid-write that somehow
// survived the atomic rename discipline, or bit-rotted) are skipped with a
// fallback to the next-newest; leftover temp files are removed.
func loadLatestSnapshot(dir string) (*snapshotFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasSuffix(n, tmpSuffix) {
			if err := os.Remove(filepath.Join(dir, n)); err != nil {
				return nil, err
			}
			continue
		}
		if _, ok := parseSnapName(n); ok {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(a, b int) bool {
		sa, _ := parseSnapName(names[a])
		sb, _ := parseSnapName(names[b])
		return sa > sb // newest first
	})
	for _, name := range names {
		snap, err := readSnapshot(filepath.Join(dir, name))
		if err == nil {
			return snap, nil
		}
	}
	return nil, nil
}

func readSnapshot(path string) (*snapshotFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	var snap snapshotFile
	if err := json.NewDecoder(zr).Decode(&snap); err != nil {
		return nil, err
	}
	// The gzip trailer CRC only verifies once the stream is fully consumed.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, err
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	if snap.Format != snapshotFormat {
		return nil, fmt.Errorf("durable: snapshot format %d, want %d", snap.Format, snapshotFormat)
	}
	if snap.State == nil {
		return nil, fmt.Errorf("durable: snapshot has no store state")
	}
	if _, err := decodeChain(snap.Chain); err != nil {
		return nil, err
	}
	return &snap, nil
}

func encodeChain(c Chain) string { return hex.EncodeToString(c[:]) }

func decodeChain(s string) (Chain, error) {
	var c Chain
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != chainSize {
		return c, fmt.Errorf("durable: bad chain encoding %q", s)
	}
	copy(c[:], b)
	return c, nil
}
