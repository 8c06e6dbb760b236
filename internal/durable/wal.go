// Package durable is the crash-safety layer under simcloudd: a
// length-prefixed, CRC-framed, hash-chained write-ahead log of ingest
// operations plus sealed-state snapshots, so a killed server recovers by
// loading the latest snapshot and replaying the WAL suffix — with the
// recovered store bit-identical to one that never crashed. The hash chain
// (each record commits to every record before it) doubles as the first step
// toward the tamper-evident result ledger of ROADMAP item 2: a verifier
// holding the final chain value can prove no logged batch was altered,
// dropped or reordered.
//
// Layout of a data directory:
//
//	wal-<firstSeq%016x>.log   append-only record files, rotated by size
//	snap-<nextSeq%016x>.snap  gzip+JSON snapshots (atomic tmp+rename)
//
// Every WAL file starts with a 48-byte header — magic, the sequence number
// of its first record, and the chain value BEFORE that record — so each
// file is independently verifiable and files wholly covered by a snapshot
// can be deleted without breaking the chain.
package durable

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Record kinds. The WAL logs logical operations, not bytes of store state:
// replaying the same operations through the same store code reproduces the
// state bit-for-bit, and the log stays readable as an audit trail.
const (
	// KindBatch is one ingest batch: a client batch ID plus the raw JSON
	// body exactly as received (replay re-decodes it through the same
	// codec, so a record that applied once applies identically again).
	KindBatch byte = 1
	// KindTelemetry is one staged monitoring-epilog record (the §II join's
	// nvidia-smi side arriving before its Slurm side).
	KindTelemetry byte = 2
	// KindSeal and KindCompact are no longer written: no answer depends on
	// where a store sealed. Older logs still hold them, and replay skips
	// them.
	KindSeal    byte = 3
	KindCompact byte = 4
)

const (
	walMagic   = "SCWALv1\n"
	walPrefix  = "wal-"
	walSuffix  = ".log"
	headerSize = len(walMagic) + 8 + chainSize // magic + firstSeq + prevChain

	chainSize  = sha256.Size
	recHdrSize = 4 + 4 + 1 + 8 + chainSize // len + crc + kind + seq + chain

	// MaxPayload bounds one record. The decoder rejects larger length
	// fields before allocating, so a corrupt length cannot OOM recovery.
	MaxPayload = 64 << 20

	// DefaultRotateBytes is the WAL file rotation threshold.
	DefaultRotateBytes = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Chain is a position in the hash chain: the SHA-256 commitment to every
// record up to and including some sequence number. The zero value is the
// genesis chain (before record 0).
type Chain [chainSize]byte

// Next returns the chain advanced over one record.
func (c Chain) Next(kind byte, seq uint64, payload []byte) Chain {
	h := sha256.New()
	h.Write(c[:])
	var hdr [9]byte
	hdr[0] = kind
	binary.BigEndian.PutUint64(hdr[1:], seq)
	h.Write(hdr[:])
	h.Write(payload)
	var out Chain
	h.Sum(out[:0])
	return out
}

// Record is one decoded WAL entry.
type Record struct {
	Seq     uint64
	Kind    byte
	Chain   Chain // chain value AFTER this record
	Payload []byte
}

// AppendRecord encodes one framed record onto buf: a 4-byte big-endian
// payload length, a CRC-32C over everything after the CRC field, then kind,
// sequence, chain and payload. The CRC catches torn writes and bit rot
// record-locally; the chain catches anything the CRC is too small to — and
// ties each record to the whole prefix.
func AppendRecord(buf []byte, kind byte, seq uint64, chain Chain, payload []byte) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, recHdrSize)...)
	buf = append(buf, payload...)
	frame := buf[off:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	frame[8] = kind
	binary.BigEndian.PutUint64(frame[9:17], seq)
	copy(frame[17:17+chainSize], chain[:])
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], castagnoli))
	return buf
}

// DecodeRecord decodes one framed record from the front of b, returning the
// record and the number of bytes consumed. It never panics and never
// allocates proportionally to a corrupt length field; any framing or CRC
// problem is an error, so a caller can distinguish "valid record", "torn or
// corrupt bytes" and nothing else.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recHdrSize {
		return Record{}, 0, fmt.Errorf("durable: short record header: %d bytes", len(b))
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > MaxPayload {
		return Record{}, 0, fmt.Errorf("durable: record length %d exceeds %d", n, MaxPayload)
	}
	total := recHdrSize + int(n)
	if len(b) < total {
		return Record{}, 0, fmt.Errorf("durable: record truncated: have %d of %d bytes", len(b), total)
	}
	if want, got := binary.BigEndian.Uint32(b[4:8]), crc32.Checksum(b[8:total], castagnoli); want != got {
		return Record{}, 0, fmt.Errorf("durable: record CRC mismatch: %08x != %08x", got, want)
	}
	rec := Record{Kind: b[8], Seq: binary.BigEndian.Uint64(b[9:17])}
	copy(rec.Chain[:], b[17:17+chainSize])
	rec.Payload = b[recHdrSize:total:total]
	return rec, total, nil
}

// wal is the append side of the log. Not safe for concurrent use; the
// Store serializes access (WAL order must match apply order anyway).
type wal struct {
	dir         string
	f           *os.File
	path        string
	sync        bool
	rotateBytes int64
	fileBytes   int64 // bytes in the current file, header included
	nextSeq     uint64
	chain       Chain
	totalBytes  int64 // cumulative record bytes ever appended by this process
	chaos       *Chaos
	scratch     []byte
}

// walFileName returns the file name for a file whose first record is seq.
func walFileName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", walPrefix, seq, walSuffix)
}

// parseWALName extracts the first-record sequence from a WAL file name.
func parseWALName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 16, 64)
	return seq, err == nil
}

// openWALForAppend positions the log for appending at seq with the given
// chain: either reopening tail (a replayed file, truncated to validBytes to
// drop a torn record) or creating a fresh file when the directory holds no
// replayable tail.
func openWALForAppend(dir, tail string, validBytes int64, seq uint64, chain Chain, syncEvery bool, rotateBytes int64, chaos *Chaos) (*wal, error) {
	if rotateBytes <= 0 {
		rotateBytes = DefaultRotateBytes
	}
	w := &wal{dir: dir, sync: syncEvery, rotateBytes: rotateBytes, nextSeq: seq, chain: chain, chaos: chaos}
	if tail == "" {
		return w, w.rotate()
	}
	path := filepath.Join(dir, tail)
	if err := os.Truncate(path, validBytes); err != nil {
		return nil, fmt.Errorf("durable: truncating torn WAL tail: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(validBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w.f, w.path, w.fileBytes = f, path, validBytes
	return w, nil
}

// rotate closes the current file and starts a new one whose header chains
// off the current position, then syncs the directory so the file survives a
// crash of the machine, not just the process.
func (w *wal) rotate() error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
	}
	path := filepath.Join(w.dir, walFileName(w.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating WAL file: %w", err)
	}
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, walMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, w.nextSeq)
	hdr = append(hdr, w.chain[:]...)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.path, w.fileBytes = f, path, int64(headerSize)
	return nil
}

// Append frames and writes one record, advancing the chain. With sync mode
// on, the record is fsynced before Append returns — the ack-implies-durable
// contract the retrying client builds on.
func (w *wal) Append(kind byte, payload []byte) (uint64, error) {
	if int64(w.fileBytes) > int64(headerSize) && w.fileBytes+int64(recHdrSize+len(payload)) > w.rotateBytes {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	seq := w.nextSeq
	next := w.chain.Next(kind, seq, payload)
	w.scratch = AppendRecord(w.scratch[:0], kind, seq, next, payload)
	if err := w.chaos.walWrite(w.f, w.scratch); err != nil {
		return 0, fmt.Errorf("durable: WAL write: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("durable: WAL fsync: %w", err)
		}
	}
	w.fileBytes += int64(len(w.scratch))
	w.totalBytes += int64(len(w.scratch))
	w.nextSeq = seq + 1
	w.chain = next
	return seq, nil
}

// Sync flushes the current file.
func (w *wal) Sync() error {
	if w.f == nil {
		return nil
	}
	return w.f.Sync()
}

// Close syncs and closes the current file.
func (w *wal) Close() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// walState is where replay left the log: the next sequence to append, the
// chain at that point, and the tail file with its last valid byte offset
// (tail == "" when the directory has no WAL files).
type walState struct {
	nextSeq    uint64
	chain      Chain
	tail       string
	validBytes int64
}

// listWALFiles returns the directory's WAL file names sorted by first
// sequence, verifying the name encodes a parseable sequence.
func listWALFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if _, ok := parseWALName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(a, b int) bool {
		sa, _ := parseWALName(names[a])
		sb, _ := parseWALName(names[b])
		return sa < sb
	})
	return names, nil
}

// replayWAL scans the directory's WAL files and calls apply for every
// record with seq >= fromSeq, verifying sequence continuity, per-record
// CRCs and the hash chain from fromChain onward (records below fromSeq are
// chain-verified but not applied — they are covered by the snapshot).
//
// Torn-tail policy: a framing or CRC error in the LAST file ends replay
// there and the bad suffix is truncated on reopen — that is what an
// interrupted write leaves behind, and the client's retry contract covers
// the unacked record. The same error in any earlier file, or any sequence
// or chain mismatch anywhere, is a hard error: acked records are missing
// or altered, and recovery must not silently drop them.
func replayWAL(dir string, fromSeq uint64, fromChain Chain, apply func(Record) error) (walState, error) {
	names, err := listWALFiles(dir)
	if err != nil {
		return walState{}, err
	}
	// Drop files wholly below fromSeq (already covered by the snapshot and
	// kept only until the next prune).
	start := 0
	for i := range names {
		seq, _ := parseWALName(names[i])
		if seq <= fromSeq {
			start = i
		}
	}
	names = names[start:]

	// A crash during rotation can leave a newest file with a torn (short)
	// header; no record in it was ever acked, so drop it and resume on the
	// file before it (or on a fresh file). Only a SHORT header qualifies —
	// a full-size header with bad magic is corruption of a real file and
	// fails loudly in the verification loop below.
	for len(names) > 0 {
		lastPath := filepath.Join(dir, names[len(names)-1])
		data, err := os.ReadFile(lastPath)
		if err != nil {
			return walState{}, err
		}
		if len(data) >= headerSize {
			break
		}
		if err := os.Remove(lastPath); err != nil {
			return walState{}, fmt.Errorf("durable: removing headerless WAL file: %w", err)
		}
		names = names[:len(names)-1]
	}
	if len(names) == 0 {
		return walState{nextSeq: fromSeq, chain: fromChain}, nil
	}
	if first, _ := parseWALName(names[0]); first > fromSeq {
		return walState{}, fmt.Errorf("durable: WAL gap: snapshot covers through seq %d but oldest file starts at %d", fromSeq, first)
	}

	expectSeq := uint64(0)
	var chain Chain
	for i, name := range names {
		nameSeq, _ := parseWALName(name)
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return walState{}, err
		}
		last := i == len(names)-1
		if len(data) < headerSize || string(data[:len(walMagic)]) != walMagic {
			return walState{}, fmt.Errorf("durable: %s: bad WAL header", name)
		}
		hdrSeq := binary.BigEndian.Uint64(data[len(walMagic) : len(walMagic)+8])
		var hdrChain Chain
		copy(hdrChain[:], data[len(walMagic)+8:headerSize])
		if hdrSeq != nameSeq {
			return walState{}, fmt.Errorf("durable: %s: header seq %d does not match name", name, hdrSeq)
		}
		if i == 0 {
			expectSeq, chain = hdrSeq, hdrChain
		} else if hdrSeq != expectSeq || hdrChain != chain {
			return walState{}, fmt.Errorf("durable: %s: chain break at file boundary (seq %d, want %d)", name, hdrSeq, expectSeq)
		}
		off := headerSize
		for off < len(data) {
			rec, n, derr := DecodeRecord(data[off:])
			if derr != nil {
				if last {
					// Torn tail: truncate here on reopen.
					return walState{nextSeq: expectSeq, chain: chain, tail: name, validBytes: int64(off)}, nil
				}
				return walState{}, fmt.Errorf("durable: %s at offset %d: %w", name, off, derr)
			}
			if rec.Seq != expectSeq {
				return walState{}, fmt.Errorf("durable: %s at offset %d: seq %d, want %d", name, off, rec.Seq, expectSeq)
			}
			if want := chain.Next(rec.Kind, rec.Seq, rec.Payload); want != rec.Chain {
				return walState{}, fmt.Errorf("durable: %s at offset %d: hash chain mismatch at seq %d", name, off, rec.Seq)
			}
			if rec.Seq == fromSeq && chain != fromChain {
				return walState{}, fmt.Errorf("durable: snapshot chain does not match WAL at seq %d", fromSeq)
			}
			chain = rec.Chain
			if rec.Seq >= fromSeq {
				if err := apply(rec); err != nil {
					return walState{}, fmt.Errorf("durable: applying WAL seq %d: %w", rec.Seq, err)
				}
			}
			expectSeq = rec.Seq + 1
			off += n
		}
	}
	if expectSeq < fromSeq {
		return walState{}, fmt.Errorf("durable: WAL ends at seq %d before snapshot coverage %d", expectSeq, fromSeq)
	}
	last := names[len(names)-1]
	fi, err := os.Stat(filepath.Join(dir, last))
	if err != nil {
		return walState{}, err
	}
	return walState{nextSeq: expectSeq, chain: chain, tail: last, validBytes: fi.Size()}, nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
