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
// or detectably corrupt (a block CRC or the end block fails), and recovery
// falls back to the previous snapshot plus a longer WAL replay.
//
// Checkpoints write format 2, the binary layout in snapformat.go. Format 1,
// gzip-compressed JSON, is still read from older data directories; the
// gzip magic tells the two apart.

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"

	snapshotFormat = 2
)

// gzipMagic opens every format-1 snapshot.
var gzipMagic = []byte{0x1f, 0x8b}

// AppliedBatch is one entry of the idempotency ledger: a client batch ID,
// the WAL sequence that committed it, and the job count it added (the
// outcome a duplicate submission gets back).
type AppliedBatch struct {
	ID   string `json:"id"`
	Seq  uint64 `json:"seq"`
	Jobs int    `json:"jobs"`
}

// snapConfig is the part of trace.SegConfig a data directory is bound to;
// recovery refuses to resume under a different one. DurationDays
// normalizes the figures, so resuming under another value would silently
// change every answer over the recovered jobs. The seal threshold changes
// no answer but is held to the recorded value alike, so a data directory
// keeps the seal schedule it was written with. MaxSegments is ignored by
// the store, so it is not recorded (format 1's max_segments is read and
// dropped).
type snapConfig struct {
	DurationDays float64 `json:"duration_days"`
	SegmentJobs  int     `json:"segment_jobs"`
}

func snapConfigOf(cfg trace.SegConfig) snapConfig {
	return snapConfig{DurationDays: cfg.DurationDays, SegmentJobs: cfg.SegmentJobs}
}

// snapshot is one checkpoint in memory, whichever format it was read from.
type snapshot struct {
	Seg     snapConfig
	NextSeq uint64
	Chain   Chain // the chain value at NextSeq
	Applied []AppliedBatch
	State   *trace.SegStoreState
}

// snapshotFileV1 is the format-1 document: one encoding/json value,
// gzip-compressed.
type snapshotFileV1 struct {
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
func writeSnapshot(dir string, snap *snapshot, chaos *Chaos) error {
	name := snapFileName(snap.NextSeq)
	tmp := filepath.Join(dir, name+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeFormat2(f, snap); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing snapshot: %w", err)
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
func loadLatestSnapshot(dir string) (*snapshot, error) {
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

// readSnapshot reads one snapshot file of either format.
func readSnapshot(path string) (*snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(f, snapBufSize)
	// A file too short or unreadable to peek at fails in readFormat2.
	if magic, _ := r.Peek(2); bytes.Equal(magic, gzipMagic) {
		return readFormat1(r)
	}
	return readFormat2(r, fi.Size())
}

// readFormat1 reads a gzip+JSON snapshot written before format 2.
func readFormat1(r io.Reader) (*snapshot, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	var v1 snapshotFileV1
	if err := json.NewDecoder(zr).Decode(&v1); err != nil {
		return nil, err
	}
	// The gzip trailer CRC only verifies once the stream is fully consumed.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, err
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	if v1.Format != 1 {
		return nil, fmt.Errorf("durable: gzip snapshot format %d, want 1", v1.Format)
	}
	if v1.State == nil {
		return nil, fmt.Errorf("durable: snapshot has no store state")
	}
	chain, err := decodeChain(v1.Chain)
	if err != nil {
		return nil, err
	}
	return &snapshot{Seg: v1.Seg, NextSeq: v1.NextSeq, Chain: chain, Applied: v1.Applied, State: v1.State}, nil
}

func decodeChain(s string) (Chain, error) {
	var c Chain
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != chainSize {
		return c, fmt.Errorf("durable: bad chain encoding %q", s)
	}
	copy(c[:], b)
	return c, nil
}
