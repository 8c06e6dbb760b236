package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/metrics"
)

// csvHeader is the column layout of the CSV codec: scheduler fields first
// (the Slurm log side of the join), then the averaged GPU digest
// (the nvidia-smi side), min/mean/max per metric.
func csvHeader() []string {
	h := []string{
		"job_id", "user", "interface", "exit",
		"submit_sec", "wait_sec", "run_sec", "limit_sec",
		"num_gpus", "cores_per_gpu", "cores", "mem_gb",
	}
	for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
		h = append(h, m.String()+"_min", m.String()+"_mean", m.String()+"_max")
	}
	h = append(h, "hostcpu_min", "hostcpu_mean", "hostcpu_max")
	h = append(h, "requeues", "failure_loss_sec")
	return h
}

// WriteCSV writes the job table (not the time-series subset) to w. Per-GPU
// summaries are not representable in a flat table; use WriteJSON to round-
// trip them. The dataset is validated first, so both codecs reject exactly
// the same datasets — without this, the CSV formatter would happily emit the
// NaN/±Inf values the JSON encoder cannot represent.
func (d *Dataset) WriteCSV(w io.Writer) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader()); err != nil {
		return fmt.Errorf("trace: writing csv header: %w", err)
	}
	row := make([]string, 0, 17+3*int(metrics.NumMetrics))
	for i := range d.Jobs {
		j := &d.Jobs[i]
		row = appendCSVRow(row[:0], j)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing job %d: %w", j.JobID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// appendCSVRow appends j's columns, in csvHeader order, to row.
func appendCSVRow(row []string, j *JobRecord) []string {
	row = append(row,
		strconv.FormatInt(j.JobID, 10),
		strconv.Itoa(j.User),
		strconv.Itoa(int(j.Interface)),
		strconv.Itoa(int(j.Exit)),
		fmtF(j.SubmitSec), fmtF(j.WaitSec), fmtF(j.RunSec), fmtF(j.LimitSec),
		strconv.Itoa(j.NumGPUs),
		strconv.Itoa(j.CoresPerGPU),
		strconv.Itoa(j.Cores),
		fmtF(j.MemGB),
	)
	for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
		row = append(row, fmtF(j.GPU[m].Min), fmtF(j.GPU[m].Mean), fmtF(j.GPU[m].Max))
	}
	row = append(row, fmtF(j.HostCPU.Min), fmtF(j.HostCPU.Mean), fmtF(j.HostCPU.Max))
	return append(row, strconv.Itoa(j.Requeues), fmtF(j.FailureLossSec))
}

// ReadCSV parses a job table written by WriteCSV into a new dataset with
// the given observation window.
func ReadCSV(r io.Reader, durationDays float64) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv header: %w", err)
	}
	want := csvHeader()
	if len(header) != len(want) {
		return nil, fmt.Errorf("trace: csv has %d columns, want %d", len(header), len(want))
	}
	d := NewDataset(durationDays)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: %w", line, err)
		}
		j, err := parseCSVRow(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: %w", line, err)
		}
		d.Add(j)
	}
	// Dataset-level checks (duplicate ids, series linkage) to match ReadJSON;
	// per-row validation above already covered the records.
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func parseCSVRow(rec []string) (JobRecord, error) {
	var j JobRecord
	var err error
	geti := func(s string) int {
		if err != nil {
			return 0
		}
		var v int
		v, err = strconv.Atoi(s)
		return v
	}
	getf := func(s string) float64 {
		if err != nil {
			return 0
		}
		var v float64
		v, err = strconv.ParseFloat(s, 64)
		return v
	}
	j.JobID = int64(geti(rec[0]))
	j.User = geti(rec[1])
	j.Interface = Interface(geti(rec[2]))
	j.Exit = ExitStatus(geti(rec[3]))
	j.SubmitSec = getf(rec[4])
	j.WaitSec = getf(rec[5])
	j.RunSec = getf(rec[6])
	j.LimitSec = getf(rec[7])
	j.NumGPUs = geti(rec[8])
	j.CoresPerGPU = geti(rec[9])
	j.Cores = geti(rec[10])
	j.MemGB = getf(rec[11])
	col := 12
	for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
		j.GPU[m] = metrics.SummaryRecord{
			Min:  getf(rec[col]),
			Mean: getf(rec[col+1]),
			Max:  getf(rec[col+2]),
		}
		col += 3
	}
	j.HostCPU = metrics.SummaryRecord{Min: getf(rec[col]), Mean: getf(rec[col+1]), Max: getf(rec[col+2])}
	col += 3
	j.Requeues = geti(rec[col])
	j.FailureLossSec = getf(rec[col+1])
	if err != nil {
		return j, err
	}
	return j, j.Validate()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// jsonDataset is the JSON wire form, carrying the full record including
// per-GPU summaries and the time-series subset.
type jsonDataset struct {
	DurationDays float64       `json:"duration_days"`
	Jobs         []JobRecord   `json:"jobs"`
	Series       []*TimeSeries `json:"series,omitempty"`
}

// WriteJSON writes the complete dataset, including per-GPU summaries and
// time series, to w. Validation mirrors WriteCSV: a dataset one codec
// accepts, both accept — and a non-finite value fails with a record-level
// error here rather than an opaque one from the JSON encoder. The series
// array is emitted in ascending job-id order: Series is a map, and writing
// it in iteration order made two encodings of the same dataset differ
// byte-for-byte run to run (simlint's maporder analyzer caught this).
func (d *Dataset) WriteJSON(w io.Writer) error {
	if err := d.Validate(); err != nil {
		return err
	}
	wire := jsonDataset{DurationDays: d.DurationDays, Jobs: d.Jobs}
	if len(d.Series) > 0 {
		ids := make([]int64, 0, len(d.Series))
		for id := range d.Series {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		wire.Series = make([]*TimeSeries, 0, len(ids))
		for _, id := range ids {
			wire.Series = append(wire.Series, d.Series[id])
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(wire); err != nil {
		return fmt.Errorf("trace: encoding dataset: %w", err)
	}
	return nil
}

// ReadJSON parses a dataset written by WriteJSON: DecodeJSON over r's
// contents. It reads r to EOF, so an error anywhere in the stream fails the
// decode, even one after the dataset's last byte (a gzip trailer's checksum
// is only verified there).
func ReadJSON(r io.Reader) (*Dataset, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading dataset: %w", err)
	}
	return DecodeJSON(data)
}

// readAll is io.ReadAll, sized up front when r knows its length (a
// bytes.Reader or bytes.Buffer), so that reading a body the caller already
// holds costs one copy rather than a dozen regrowths: the benchmark times
// ReadJSON over an ingest body against IngestBatch, which decodes its
// bytes directly.
func readAll(r io.Reader) ([]byte, error) {
	n := 512
	if l, ok := r.(interface{ Len() int }); ok {
		n = l.Len() + 1 // room for the read that returns io.EOF
	}
	buf := make([]byte, 0, n)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
