package durable

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzWALRecord throws arbitrary bytes at the WAL record decoder. The
// decoder sits on the recovery path — it reads whatever a crash left on
// disk — so the contract is absolute: truncations, bit flips, hostile
// length fields and random noise must all come back as errors, never as a
// panic, an over-allocation, or a silently wrong record. Accepted inputs
// must re-encode to exactly the consumed bytes (the codec is bijective on
// valid frames, so a decode cannot "repair" anything).
func FuzzWALRecord(f *testing.F) {
	var chain Chain
	payload := []byte("fuzz seed payload")
	valid := AppendRecord(nil, KindBatch, 7, chain.Next(KindBatch, 7, payload), payload)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                         // truncated payload
	f.Add(valid[:recHdrSize-1])                         // truncated header
	f.Add([]byte{})                                     // empty
	f.Add(AppendRecord(nil, KindSeal, 0, Chain{}, nil)) // empty payload record
	hostile := make([]byte, recHdrSize)
	binary.BigEndian.PutUint32(hostile, 1<<31) // length far beyond MaxPayload
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeRecord(b)
		if err != nil {
			if n != 0 {
				t.Fatalf("error with %d bytes consumed", n)
			}
			return
		}
		if n < recHdrSize || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if len(rec.Payload) > MaxPayload {
			t.Fatalf("payload %d exceeds MaxPayload", len(rec.Payload))
		}
		re := AppendRecord(nil, rec.Kind, rec.Seq, rec.Chain, rec.Payload)
		if !bytes.Equal(re, b[:n]) {
			t.Fatal("decode/encode round-trip altered the frame")
		}
	})
}

// FuzzReadSnapshot throws arbitrary bytes at the format-2 snapshot reader,
// which, like the WAL decoder, reads whatever a crash or a bad disk left
// behind. Truncations, bit flips, hostile counts and random noise must come
// back as errors, never as a panic; the memory a read allocates stays
// within a fixed multiple of the input's size whatever its count fields
// claim; and an accepted input re-encodes to exactly its bytes (the format
// is canonical, so a read cannot "repair" anything).
func FuzzReadSnapshot(f *testing.F) {
	st, err := Open(f.TempDir(), testSegCfg, Options{})
	if err != nil {
		f.Fatal(err)
	}
	seriesTelemetry(f, st, 3) // joins the batch below
	seriesTelemetry(f, st, 1<<40)
	if _, _, err := st.IngestBatch("seed", batchBody(f, 0, 4)); err != nil {
		f.Fatal(err)
	}
	snap := captureSnapshot(f, st)
	if err := st.CloseNoSnapshot(); err != nil {
		f.Fatal(err)
	}
	if len(snap.State.Series) == 0 || len(snap.State.Staged) == 0 {
		f.Fatal("seed snapshot holds no series or no staged entry")
	}
	valid := encodeFormat2(f, snap)
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // torn in the end block
	f.Add(valid[:len(snapMagic)+blockFrame])
	f.Add([]byte{})
	hostile := append([]byte(nil), valid...)
	// The ledger count, just past the header block: far more entries than
	// the file holds.
	binary.LittleEndian.PutUint64(hostile[len(snapMagic)+blockFrame+headerBytes+4+blockFrame:], 1<<40)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := readFormat2(bytes.NewReader(b), int64(len(b)))
		runtime.ReadMemStats(&after)
		// A GPU stream with no samples is 4 bytes on disk and a 24-byte
		// slice header in memory, and slices past their preallocation grow
		// by copying, so honest content can cost a few tens of bytes per
		// byte read; a count that drove allocation would cost far more.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(32*len(b)+4*snapBufSize) {
			t.Fatalf("reading %d bytes allocated %d", len(b), alloc)
		}
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := writeFormat2(&re, snap); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), b) {
			t.Fatal("read/write round-trip altered the file")
		}
	})
}
