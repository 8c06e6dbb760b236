package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func gpuJob(id int64, user int, runSec float64, gpus int) JobRecord {
	j := JobRecord{
		JobID: id, User: user, Interface: Other, Exit: ExitSuccess,
		SubmitSec: 100, WaitSec: 5, RunSec: runSec, LimitSec: 43200,
		NumGPUs: gpus, CoresPerGPU: 4, MemGB: 64,
	}
	for g := 0; g < gpus; g++ {
		var s metrics.MetricSummaries
		s[metrics.SMUtil] = metrics.SummaryRecord{Min: 0, Mean: 20, Max: 90}
		s[metrics.Power] = metrics.SummaryRecord{Min: 25, Mean: 45, Max: 90}
		j.PerGPU = append(j.PerGPU, s)
	}
	j.FinalizeGPUSummary()
	return j
}

func cpuJob(id int64, user int, runSec float64) JobRecord {
	return JobRecord{
		JobID: id, User: user, Interface: Batch, Exit: ExitSuccess,
		SubmitSec: 50, WaitSec: 120, RunSec: runSec, Cores: 40, MemGB: 384,
	}
}

func TestRecordDerivedQuantities(t *testing.T) {
	j := gpuJob(1, 0, 3600, 2)
	if !j.IsGPU() {
		t.Fatal("gpu job not recognized")
	}
	if j.ServiceSec() != 3605 {
		t.Fatalf("service = %v", j.ServiceSec())
	}
	if wf := j.WaitFraction(); math.Abs(wf-5.0/3605*100) > 1e-9 {
		t.Fatalf("wait fraction = %v", wf)
	}
	if gh := j.GPUHours(); gh != 2 {
		t.Fatalf("GPU hours = %v, want 2", gh)
	}
	zero := JobRecord{}
	if zero.WaitFraction() != 0 {
		t.Fatal("zero-service wait fraction not 0")
	}
}

// TestRecordValidate pins JobRecord.Validate as the one boundary every
// record crosses: each rejected record is refused with its job ID by
// Validate itself and by both decoders.
func TestRecordValidate(t *testing.T) {
	good := gpuJob(7, 0, 60, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		mutate   func(*JobRecord)
		jsonOnly bool // the CSV table carries no per-GPU summaries
	}{
		{"per-gpu-count", func(j *JobRecord) { j.PerGPU = j.PerGPU[:1] }, true},
		{"negative-run", func(j *JobRecord) { j.RunSec = -1 }, false},
		{"negative-limit", func(j *JobRecord) { j.LimitSec = -1 }, false},
		{"negative-cores", func(j *JobRecord) { j.Cores = -1 }, false},
		{"negative-cores-per-gpu", func(j *JobRecord) { j.CoresPerGPU = -4 }, false},
		{"negative-mem", func(j *JobRecord) { j.MemGB = -1 }, false},
		{"interface-negative", func(j *JobRecord) { j.Interface = -1 }, false},
		{"interface-past-end", func(j *JobRecord) { j.Interface = NumInterfaces }, false},
		{"exit-negative", func(j *JobRecord) { j.Exit = -1 }, false},
		{"exit-past-end", func(j *JobRecord) { j.Exit = NumExitStatuses }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			bad.PerGPU = append([]metrics.MetricSummaries(nil), good.PerGPU...)
			tc.mutate(&bad)
			check := func(path string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted the record", path)
				}
				if !strings.Contains(err.Error(), "job 7") {
					t.Fatalf("%s error %q does not name the job", path, err)
				}
			}
			check("Validate", bad.Validate())
			body, err := json.Marshal(jsonDataset{DurationDays: 1, Jobs: []JobRecord{bad}})
			if err != nil {
				t.Fatal(err)
			}
			_, err = ReadJSON(bytes.NewReader(body))
			check("ReadJSON", err)
			if tc.jsonOnly {
				return
			}
			var buf bytes.Buffer
			cw := csv.NewWriter(&buf)
			_ = cw.Write(csvHeader())
			_ = cw.Write(appendCSVRow(nil, &bad))
			cw.Flush()
			_, err = ReadCSV(&buf, 1)
			check("ReadCSV", err)
		})
	}
}

func TestDatasetFiltering(t *testing.T) {
	d := NewDataset(125)
	d.Add(gpuJob(1, 0, 3600, 1))
	d.Add(gpuJob(2, 0, 10, 1)) // filtered: < 30 s
	d.Add(gpuJob(3, 1, 600, 4))
	d.Add(cpuJob(4, 2, 480))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(d.GPUJobs()); n != 2 {
		t.Fatalf("GPU jobs = %d, want 2 (30 s filter)", n)
	}
	if n := len(d.CPUJobs()); n != 1 {
		t.Fatalf("CPU jobs = %d", n)
	}
	if n := len(d.MultiGPUJobs()); n != 1 {
		t.Fatalf("multi-GPU jobs = %d", n)
	}
	if users := d.Users(); len(users) != 3 {
		t.Fatalf("users = %v", users)
	}
	if by := d.ByUser(); len(by[0]) != 1 || len(by[1]) != 1 {
		t.Fatalf("ByUser = %v", by)
	}
	if gh := d.TotalGPUHours(); math.Abs(gh-(1+4.0/6)) > 1e-9 {
		t.Fatalf("total GPU hours = %v", gh)
	}
}

func TestDatasetDuplicateIDs(t *testing.T) {
	d := NewDataset(1)
	d.Add(gpuJob(1, 0, 60, 1))
	d.Add(gpuJob(1, 0, 60, 1))
	if err := d.Validate(); err == nil {
		t.Fatal("duplicate ids accepted")
	}
}

func TestSeriesLinkage(t *testing.T) {
	d := NewDataset(1)
	d.Add(gpuJob(1, 0, 60, 1))
	d.AttachSeries(&TimeSeries{JobID: 1, IntervalSec: 1, PerGPU: [][]metrics.Sample{make([]metrics.Sample, 60)}})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if dur := d.Series[1].Duration(); dur != 60 {
		t.Fatalf("series duration = %v", dur)
	}
	d.AttachSeries(&TimeSeries{JobID: 99, IntervalSec: 1})
	if err := d.Validate(); err == nil {
		t.Fatal("orphan series accepted")
	}
}

// meanValues extracts one metric's per-job mean across jobs, the row
// reference the Mean columns are checked against.
func meanValues(jobs []*JobRecord, m metrics.Metric) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.GPU[m].Mean
	}
	return out
}

// runMinutes extracts run times in minutes.
func runMinutes(jobs []*JobRecord) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.RunSec / 60
	}
	return out
}

func TestExtractors(t *testing.T) {
	d := NewDataset(1)
	d.Add(gpuJob(1, 0, 600, 1))
	d.Add(gpuJob(2, 0, 1200, 1))
	jobs := d.GPUJobs()
	means := meanValues(jobs, metrics.SMUtil)
	if len(means) != 2 || means[0] != 20 {
		t.Fatalf("means = %v", means)
	}
	maxes := MaxValues(jobs, metrics.Power)
	if maxes[0] != 90 {
		t.Fatalf("maxes = %v", maxes)
	}
	mins := runMinutes(jobs)
	if mins[0] != 10 || mins[1] != 20 {
		t.Fatalf("run minutes = %v", mins)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := NewDataset(125)
	d.Add(gpuJob(1, 3, 3600, 2))
	d.Add(cpuJob(2, 4, 480))
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, 125)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 2 {
		t.Fatalf("round trip jobs = %d", len(back.Jobs))
	}
	got := back.Jobs[0]
	want := d.Jobs[0]
	if got.JobID != want.JobID || got.User != want.User || got.RunSec != want.RunSec ||
		got.Interface != want.Interface || got.Exit != want.Exit || got.NumGPUs != want.NumGPUs {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.GPU[metrics.SMUtil] != want.GPU[metrics.SMUtil] {
		t.Fatalf("summary mismatch: %+v vs %+v", got.GPU[metrics.SMUtil], want.GPU[metrics.SMUtil])
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("not,a,header\n"), 1); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := NewDataset(125)
	d.Add(gpuJob(1, 3, 3600, 2))
	d.AttachSeries(&TimeSeries{
		JobID:       1,
		IntervalSec: 1,
		PerGPU:      [][]metrics.Sample{{{TimeSec: 0}, {TimeSec: 1}}},
	})
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 1 || len(back.Jobs[0].PerGPU) != 2 {
		t.Fatalf("json round trip lost per-GPU data: %+v", back.Jobs)
	}
	if back.Series[1] == nil || len(back.Series[1].PerGPU[0]) != 2 {
		t.Fatal("json round trip lost series")
	}
	if back.DurationDays != 125 {
		t.Fatalf("duration = %v", back.DurationDays)
	}
}

func TestEnumStrings(t *testing.T) {
	if MapReduce.String() != "map-reduce" || Other.String() != "other" {
		t.Fatal("interface strings wrong")
	}
	if ExitSuccess.String() != "success" || ExitTimeout.String() != "timeout" {
		t.Fatal("exit strings wrong")
	}
	if Mature.String() != "mature" || IDE.String() != "ide" {
		t.Fatal("category strings wrong")
	}
	if Interface(77).String() == "" || ExitStatus(77).String() == "" || Category(77).String() == "" {
		t.Fatal("unknown enum strings empty")
	}
}
