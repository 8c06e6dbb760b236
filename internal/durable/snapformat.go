package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Snapshot format 2 is a fixed-width little-endian binary file:
//
//	magic "SCSNAPv2"
//	block*                 tag u8 | length u64 | payload | CRC-32C u32
//
// The CRC covers the tag, the length and the payload. The blocks come in
// one order, each exactly once:
//
//	header  format u32 (2) | DurationDays f64 | SegmentJobs i64 | NextSeq u64 | chain [32]
//	ledger  count u64 | count × (ID length u32 | ID | seq u64 | jobs i64)
//	rows    count u64 | count × row
//	series  count u64 | count × series
//	staged  count u64 | count × (JobID i64 | PerGPU | has-series u8 | [series])
//	end     (empty)
//
// A row is one trace.JobRecord: JobID, User, Interface, Exit (i64);
// SubmitSec, WaitSec, RunSec, LimitSec (f64); NumGPUs, CoresPerGPU, Cores
// (i64); MemGB (f64); Requeues (i64); FailureLossSec (f64); GPU and
// HostCPU as 21 f64 (metric-major Min, Mean, Max); then PerGPU. A PerGPU
// list is a u32 count of 18-f64 digests. A series is JobID i64 |
// IntervalSec f64 | GPU count u32 | per GPU (sample count u32 | samples of
// TimeSec and the metric values, 7 f64 each). Floats are stored as their
// raw bits, so every value reads back bit-identical.
//
// The end block makes a truncation at any offset detectable, and nothing
// may follow it. The encoding is canonical: a file that reads back
// re-encodes to the same bytes.

// Block tags, in file order.
const (
	blockHeader byte = iota + 1
	blockLedger
	blockRows
	blockSeries
	blockStaged
	blockEnd
)

const (
	snapMagic   = "SCSNAPv2"
	snapBufSize = 256 << 10

	blockFrame    = 1 + 8 // tag + length, before the payload
	headerBytes   = 4 + 8 + 8 + 8 + chainSize
	summaryBytes  = int(metrics.NumMetrics) * 3 * 8 // one MetricSummaries
	rowFixedBytes = 14*8 + summaryBytes + 3*8 + 4   // scalars, GPU, HostCPU, PerGPU count
	sampleBytes   = (1 + int(metrics.NumMetrics)) * 8
	ledgerMin     = 4 + 8 + 8
	seriesMin     = 8 + 8 + 4
	stagedMin     = 8 + 4 + 1
)

// Record sizes in memory, which bound every preallocation a count field
// asks for (see prealloc).
const (
	jobRecordSize = int64(unsafe.Sizeof(trace.JobRecord{}))
	appliedSize   = int64(unsafe.Sizeof(AppliedBatch{}))
	stagedSize    = int64(unsafe.Sizeof(trace.StagedEntry{}))
	streamSize    = int64(unsafe.Sizeof([]metrics.Sample(nil)))
	pointerSize   = int64(unsafe.Sizeof((*trace.TimeSeries)(nil)))
)

// writeFormat2 streams snap to w as a format-2 file. Every block's length is
// computed before its payload is written, so the file is produced in one
// pass through one buffered writer.
func writeFormat2(w io.Writer, snap *snapshot) error {
	st := snap.State
	e := &snapWriter{w: bufio.NewWriterSize(w, snapBufSize)}
	e.raw([]byte(snapMagic))

	e.begin(blockHeader, headerBytes)
	b := binary.LittleEndian.AppendUint32(e.buf[:0], snapshotFormat)
	b = appendF64(b, snap.Seg.DurationDays)
	b = appendInt(b, snap.Seg.SegmentJobs)
	b = binary.LittleEndian.AppendUint64(b, snap.NextSeq)
	b = append(b, snap.Chain[:]...)
	e.put(b)
	e.end()

	n := int64(8)
	for i := range snap.Applied {
		n += ledgerMin + int64(len(snap.Applied[i].ID))
	}
	e.begin(blockLedger, n)
	e.put(binary.LittleEndian.AppendUint64(e.buf[:0], uint64(len(snap.Applied))))
	for i := range snap.Applied {
		ab := &snap.Applied[i]
		b := binary.LittleEndian.AppendUint32(e.buf[:0], uint32(len(ab.ID)))
		b = append(b, ab.ID...)
		b = binary.LittleEndian.AppendUint64(b, ab.Seq)
		e.put(appendInt(b, ab.Jobs))
	}
	e.end()

	n = 8
	for i := range st.Jobs {
		n += int64(rowFixedBytes + summaryBytes*len(st.Jobs[i].PerGPU))
	}
	e.begin(blockRows, n)
	e.put(binary.LittleEndian.AppendUint64(e.buf[:0], uint64(len(st.Jobs))))
	for i := range st.Jobs {
		e.put(appendRow(e.buf[:0], &st.Jobs[i]))
	}
	e.end()

	n = 8
	for _, ts := range st.Series {
		n += seriesBytes(ts)
	}
	e.begin(blockSeries, n)
	e.put(binary.LittleEndian.AppendUint64(e.buf[:0], uint64(len(st.Series))))
	for _, ts := range st.Series {
		e.series(ts)
	}
	e.end()

	n = 8
	for i := range st.Staged {
		n += stagedMin + int64(summaryBytes*len(st.Staged[i].PerGPU))
		if ts := st.Staged[i].Series; ts != nil {
			n += seriesBytes(ts)
		}
	}
	e.begin(blockStaged, n)
	e.put(binary.LittleEndian.AppendUint64(e.buf[:0], uint64(len(st.Staged))))
	for i := range st.Staged {
		se := &st.Staged[i]
		b := appendInt64(e.buf[:0], se.JobID)
		b = appendPerGPU(b, se.PerGPU)
		if se.Series == nil {
			e.put(append(b, 0))
			continue
		}
		e.put(append(b, 1))
		e.series(se.Series)
	}
	e.end()

	e.begin(blockEnd, 0)
	e.end()
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

func seriesBytes(ts *trace.TimeSeries) int64 {
	n := int64(seriesMin)
	for _, s := range ts.PerGPU {
		n += 4 + int64(sampleBytes*len(s))
	}
	return n
}

// snapWriter is writeFormat2's block writer: begin declares a block's
// payload length, put writes payload bytes and folds them into the
// block's CRC, end checks that exactly the declared bytes came and writes
// the CRC. The first error sticks and turns every later call into a no-op.
type snapWriter struct {
	w    *bufio.Writer
	crc  uint32
	left int64  // payload bytes the open block still owes
	buf  []byte // one encoded record, reused
	err  error
}

func (e *snapWriter) raw(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *snapWriter) begin(tag byte, n int64) {
	var hdr [blockFrame]byte
	hdr[0] = tag
	binary.LittleEndian.PutUint64(hdr[1:], uint64(n))
	e.crc = crc32.Update(0, castagnoli, hdr[:])
	e.left = n
	e.raw(hdr[:])
}

func (e *snapWriter) put(b []byte) {
	e.buf = b[:0] // keep the grown scratch buffer
	e.crc = crc32.Update(e.crc, castagnoli, b)
	e.left -= int64(len(b))
	e.raw(b)
}

func (e *snapWriter) end() {
	if e.err == nil && e.left != 0 {
		e.err = fmt.Errorf("durable: snapshot block length off by %d bytes", e.left)
	}
	e.raw(binary.LittleEndian.AppendUint32(nil, e.crc))
}

// series writes one series a GPU stream at a time.
func (e *snapWriter) series(ts *trace.TimeSeries) {
	b := appendInt64(e.buf[:0], ts.JobID)
	b = appendF64(b, ts.IntervalSec)
	e.put(binary.LittleEndian.AppendUint32(b, uint32(len(ts.PerGPU))))
	for _, stream := range ts.PerGPU {
		b := binary.LittleEndian.AppendUint32(e.buf[:0], uint32(len(stream)))
		for k := range stream {
			b = appendF64(b, stream[k].TimeSec)
			for _, v := range stream[k].Values {
				b = appendF64(b, v)
			}
		}
		e.put(b)
	}
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendInt64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendInt(b []byte, v int) []byte { return appendInt64(b, int64(v)) }

func appendSummaries(b []byte, s *metrics.MetricSummaries) []byte {
	for m := range s {
		b = appendF64(b, s[m].Min)
		b = appendF64(b, s[m].Mean)
		b = appendF64(b, s[m].Max)
	}
	return b
}

func appendPerGPU(b []byte, per []metrics.MetricSummaries) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(per)))
	for g := range per {
		b = appendSummaries(b, &per[g])
	}
	return b
}

func appendRow(b []byte, j *trace.JobRecord) []byte {
	b = appendInt64(b, j.JobID)
	b = appendInt(b, j.User)
	b = appendInt(b, int(j.Interface))
	b = appendInt(b, int(j.Exit))
	b = appendF64(b, j.SubmitSec)
	b = appendF64(b, j.WaitSec)
	b = appendF64(b, j.RunSec)
	b = appendF64(b, j.LimitSec)
	b = appendInt(b, j.NumGPUs)
	b = appendInt(b, j.CoresPerGPU)
	b = appendInt(b, j.Cores)
	b = appendF64(b, j.MemGB)
	b = appendInt(b, j.Requeues)
	b = appendF64(b, j.FailureLossSec)
	b = appendSummaries(b, &j.GPU)
	b = appendF64(b, j.HostCPU.Min)
	b = appendF64(b, j.HostCPU.Mean)
	b = appendF64(b, j.HostCPU.Max)
	return appendPerGPU(b, j.PerGPU)
}

// readFormat2 reads a format-2 file of size bytes from r. It decodes
// record by record as it reads, so it holds no more of the file than one
// record at a time, and it returns nothing until every block's CRC has
// verified. Every count is checked against the bytes its block has left
// before anything is allocated for it, so a corrupt or hostile count field
// costs an error, not memory.
func readFormat2(r io.Reader, size int64) (*snapshot, error) {
	d := &snapReader{r: bufio.NewReaderSize(r, int(min(size, snapBufSize))), fileLeft: size}
	magic, err := d.fill(len(snapMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != snapMagic {
		return nil, fmt.Errorf("durable: not a snapshot file (magic %q)", magic)
	}
	snap := &snapshot{State: &trace.SegStoreState{}}
	for _, blk := range []struct {
		tag  byte
		read func(d *snapReader, snap *snapshot) error
	}{
		{blockHeader, readHeader},
		{blockLedger, readLedger},
		{blockRows, readRows},
		{blockSeries, readSeries},
		{blockStaged, readStaged},
		{blockEnd, func(*snapReader, *snapshot) error { return nil }},
	} {
		if err := d.begin(blk.tag); err != nil {
			return nil, err
		}
		if err := blk.read(d, snap); err != nil {
			return nil, err
		}
		if err := d.end(); err != nil {
			return nil, err
		}
	}
	if d.fileLeft != 0 {
		return nil, fmt.Errorf("durable: %d bytes after the snapshot's end block", d.fileLeft)
	}
	return snap, nil
}

// snapReader is readFormat2's block reader, the mirror of snapWriter.
type snapReader struct {
	r        *bufio.Reader
	fileLeft int64 // bytes of the file not yet read
	left     int64 // payload bytes of the current block not yet read
	crc      uint32
	buf      []byte // the last fill, reused
}

// fill reads the next n bytes of the file into the reused buffer.
func (d *snapReader) fill(n int) ([]byte, error) {
	if int64(n) > d.fileLeft {
		return nil, fmt.Errorf("durable: snapshot truncated: %d bytes wanted, %d left", n, d.fileLeft)
	}
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	b := d.buf[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return nil, fmt.Errorf("durable: reading snapshot: %w", err)
	}
	d.fileLeft -= int64(n)
	return b, nil
}

func (d *snapReader) begin(tag byte) error {
	hdr, err := d.fill(blockFrame)
	if err != nil {
		return err
	}
	if hdr[0] != tag {
		return fmt.Errorf("durable: snapshot block tag %d, want %d", hdr[0], tag)
	}
	n := binary.LittleEndian.Uint64(hdr[1:])
	if n > uint64(d.fileLeft) || int64(n) > d.fileLeft-4 {
		return fmt.Errorf("durable: snapshot block %d claims %d bytes, %d left", tag, n, d.fileLeft)
	}
	d.crc = crc32.Update(0, castagnoli, hdr)
	d.left = int64(n)
	return nil
}

// next reads n payload bytes of the current block.
func (d *snapReader) next(n int) ([]byte, error) {
	if int64(n) > d.left {
		return nil, fmt.Errorf("durable: snapshot block overrun: %d bytes wanted, %d left", n, d.left)
	}
	b, err := d.fill(n)
	if err != nil {
		return nil, err
	}
	d.left -= int64(n)
	d.crc = crc32.Update(d.crc, castagnoli, b)
	return b, nil
}

// count reads a u64 entry count and checks that the block has room for
// that many entries of at least size bytes each.
func (d *snapReader) count(size int) (int64, error) {
	b, err := d.next(8)
	if err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint64(b)
	if n > uint64(d.left/int64(size)) {
		return 0, fmt.Errorf("durable: snapshot count %d does not fit in %d bytes", n, d.left)
	}
	return int64(n), nil
}

// prealloc is the capacity to reserve for n entries of size bytes each in
// memory: n, unless that would take more memory than the block has bytes
// left, in which case the slice grows as entries are actually read.
func (d *snapReader) prealloc(n, size int64) int {
	return int(min(n, d.left/size))
}

func (d *snapReader) end() error {
	if d.left != 0 {
		return fmt.Errorf("durable: snapshot block has %d unread bytes", d.left)
	}
	want := d.crc
	b, err := d.fill(4)
	if err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(b); got != want {
		return fmt.Errorf("durable: snapshot block CRC %08x, want %08x", got, want)
	}
	return nil
}

func readHeader(d *snapReader, snap *snapshot) error {
	b, err := d.next(headerBytes)
	if err != nil {
		return err
	}
	if f := binary.LittleEndian.Uint32(b); f != snapshotFormat {
		return fmt.Errorf("durable: snapshot format %d, want %d", f, snapshotFormat)
	}
	snap.Seg.DurationDays = getF64(b[4:])
	snap.Seg.SegmentJobs = getInt(b[12:])
	snap.NextSeq = binary.LittleEndian.Uint64(b[20:])
	copy(snap.Chain[:], b[28:])
	return nil
}

func readLedger(d *snapReader, snap *snapshot) error {
	n, err := d.count(ledgerMin)
	if err != nil {
		return err
	}
	snap.Applied = make([]AppliedBatch, 0, d.prealloc(n, appliedSize))
	for i := int64(0); i < n; i++ {
		b, err := d.next(4)
		if err != nil {
			return err
		}
		id, err := d.next(int(binary.LittleEndian.Uint32(b)))
		if err != nil {
			return err
		}
		ab := AppliedBatch{ID: string(id)}
		if b, err = d.next(16); err != nil {
			return err
		}
		ab.Seq = binary.LittleEndian.Uint64(b)
		ab.Jobs = getInt(b[8:])
		snap.Applied = append(snap.Applied, ab)
	}
	return nil
}

func readRows(d *snapReader, snap *snapshot) error {
	n, err := d.count(rowFixedBytes)
	if err != nil {
		return err
	}
	jobs := make([]trace.JobRecord, 0, d.prealloc(n, jobRecordSize))
	for i := int64(0); i < n; i++ {
		b, err := d.next(rowFixedBytes)
		if err != nil {
			return err
		}
		j := trace.JobRecord{
			JobID:          int64(binary.LittleEndian.Uint64(b)),
			User:           getInt(b[8:]),
			Interface:      trace.Interface(getInt(b[16:])),
			Exit:           trace.ExitStatus(getInt(b[24:])),
			SubmitSec:      getF64(b[32:]),
			WaitSec:        getF64(b[40:]),
			RunSec:         getF64(b[48:]),
			LimitSec:       getF64(b[56:]),
			NumGPUs:        getInt(b[64:]),
			CoresPerGPU:    getInt(b[72:]),
			Cores:          getInt(b[80:]),
			MemGB:          getF64(b[88:]),
			Requeues:       getInt(b[96:]),
			FailureLossSec: getF64(b[104:]),
			GPU:            getSummaries(b[112:]),
			HostCPU:        metrics.SummaryRecord{Min: getF64(b[256:]), Mean: getF64(b[264:]), Max: getF64(b[272:])},
		}
		if j.PerGPU, err = d.perGPU(binary.LittleEndian.Uint32(b[280:])); err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	snap.State.Jobs = jobs
	return nil
}

// perGPU reads the n digests of a PerGPU list whose count was just read.
func (d *snapReader) perGPU(n uint32) ([]metrics.MetricSummaries, error) {
	if n == 0 {
		return nil, nil
	}
	if int64(n) > d.left/int64(summaryBytes) {
		return nil, fmt.Errorf("durable: snapshot PerGPU count %d does not fit in %d bytes", n, d.left)
	}
	b, err := d.next(int(n) * summaryBytes)
	if err != nil {
		return nil, err
	}
	per := make([]metrics.MetricSummaries, n)
	for g := range per {
		per[g] = getSummaries(b[g*summaryBytes:])
	}
	return per, nil
}

func readSeries(d *snapReader, snap *snapshot) error {
	n, err := d.count(seriesMin)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	snap.State.Series = make([]*trace.TimeSeries, 0, d.prealloc(n, pointerSize))
	for i := int64(0); i < n; i++ {
		ts, err := d.series()
		if err != nil {
			return err
		}
		snap.State.Series = append(snap.State.Series, ts)
	}
	return nil
}

func (d *snapReader) series() (*trace.TimeSeries, error) {
	b, err := d.next(seriesMin)
	if err != nil {
		return nil, err
	}
	ts := &trace.TimeSeries{JobID: int64(binary.LittleEndian.Uint64(b)), IntervalSec: getF64(b[8:])}
	nGPU := int64(binary.LittleEndian.Uint32(b[16:]))
	if nGPU > d.left/4 {
		return nil, fmt.Errorf("durable: snapshot series GPU count %d does not fit in %d bytes", nGPU, d.left)
	}
	if nGPU == 0 {
		return ts, nil
	}
	ts.PerGPU = make([][]metrics.Sample, 0, d.prealloc(nGPU, streamSize))
	for g := int64(0); g < nGPU; g++ {
		b, err := d.next(4)
		if err != nil {
			return nil, err
		}
		ns := int64(binary.LittleEndian.Uint32(b))
		if ns > d.left/int64(sampleBytes) {
			return nil, fmt.Errorf("durable: snapshot sample count %d does not fit in %d bytes", ns, d.left)
		}
		var stream []metrics.Sample
		if ns > 0 {
			if b, err = d.next(int(ns) * sampleBytes); err != nil {
				return nil, err
			}
			stream = make([]metrics.Sample, ns)
			for k := range stream {
				rec := b[k*sampleBytes:]
				stream[k].TimeSec = getF64(rec)
				for m := range stream[k].Values {
					stream[k].Values[m] = getF64(rec[8+8*m:])
				}
			}
		}
		ts.PerGPU = append(ts.PerGPU, stream)
	}
	return ts, nil
}

func readStaged(d *snapReader, snap *snapshot) error {
	n, err := d.count(stagedMin)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	snap.State.Staged = make([]trace.StagedEntry, 0, d.prealloc(n, stagedSize))
	for i := int64(0); i < n; i++ {
		b, err := d.next(12)
		if err != nil {
			return err
		}
		se := trace.StagedEntry{JobID: int64(binary.LittleEndian.Uint64(b))}
		if se.PerGPU, err = d.perGPU(binary.LittleEndian.Uint32(b[8:])); err != nil {
			return err
		}
		if b, err = d.next(1); err != nil {
			return err
		}
		switch b[0] {
		case 0:
		case 1:
			if se.Series, err = d.series(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("durable: snapshot staged-series flag %d", b[0])
		}
		snap.State.Staged = append(snap.State.Staged, se)
	}
	return nil
}

func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func getInt(b []byte) int { return int(int64(binary.LittleEndian.Uint64(b))) }

func getSummaries(b []byte) metrics.MetricSummaries {
	var s metrics.MetricSummaries
	for m := range s {
		r := b[m*24:]
		s[m] = metrics.SummaryRecord{Min: getF64(r), Mean: getF64(r[8:]), Max: getF64(r[16:])}
	}
	return s
}
