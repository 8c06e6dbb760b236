package trace

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// noCopy is the standard vet copylocks sentinel: embedding it makes
// `go vet` (and simlint's copylocks pass) flag any by-value copy of the
// enclosing struct. It has Lock/Unlock so the copylocks analyzer treats it
// as a lock type; the methods do nothing.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Dataset is the joined study dataset: every job record, plus the detailed
// time-series subset keyed by job ID. It corresponds to the paper's "single
// dataset" built by combining Slurm logs and nvidia-smi profiles on job IDs.
// A Dataset must not be copied by value: the columnar memo holds a mutex
// and aliases d.Jobs element pointers, so a copy would race and dangle.
// Pass *Dataset, or build a fresh value via a composite literal sharing
// Jobs/Series. The noCopy field makes go vet and simlint flag violations.
type Dataset struct {
	noCopy noCopy

	Jobs   []JobRecord
	Series map[int64]*TimeSeries
	// DurationDays is the trace's observation window (the paper's is 125).
	DurationDays float64

	colMu sync.Mutex
	cols  *Columns
}

// Columns returns the memoized columnar projection of the dataset, building
// it on first use. Add and AttachSeries invalidate the memo, so the returned
// index always reflects the current contents; mutating Jobs or Series
// directly does not (rebuild by calling BuildColumns, or mutate through the
// methods). Safe for concurrent use.
func (d *Dataset) Columns() *Columns {
	d.colMu.Lock()
	defer d.colMu.Unlock()
	if d.cols == nil {
		d.cols = BuildColumns(d)
	}
	return d.cols
}

// invalidateColumns drops the columnar memo after a mutation.
func (d *Dataset) invalidateColumns() {
	d.colMu.Lock()
	d.cols = nil
	d.colMu.Unlock()
}

// MinGPUJobRunSec is the paper's analysis filter: "jobs running for less
// than 30 seconds are filtered out since no activity is observed".
const MinGPUJobRunSec = 30

// NewDataset creates an empty dataset covering durationDays.
func NewDataset(durationDays float64) *Dataset {
	return &Dataset{Series: make(map[int64]*TimeSeries), DurationDays: durationDays}
}

// Add appends a record.
func (d *Dataset) Add(j JobRecord) {
	d.Jobs = append(d.Jobs, j)
	d.invalidateColumns()
}

// AttachSeries stores the detailed time series of a job.
func (d *Dataset) AttachSeries(ts *TimeSeries) {
	if d.Series == nil {
		d.Series = make(map[int64]*TimeSeries)
	}
	d.Series[ts.JobID] = ts
	d.invalidateColumns()
}

// GPUJobs returns the analysis population: GPU jobs with run time of at
// least MinGPUJobRunSec (47,120 of the paper's 74,820).
func (d *Dataset) GPUJobs() []*JobRecord {
	out := make([]*JobRecord, 0, len(d.Jobs))
	for i := range d.Jobs {
		j := &d.Jobs[i]
		if j.IsGPU() && j.RunSec >= MinGPUJobRunSec {
			out = append(out, j)
		}
	}
	return out
}

// CPUJobs returns jobs that requested no GPU.
func (d *Dataset) CPUJobs() []*JobRecord {
	out := make([]*JobRecord, 0, len(d.Jobs))
	for i := range d.Jobs {
		if !d.Jobs[i].IsGPU() {
			out = append(out, &d.Jobs[i])
		}
	}
	return out
}

// MultiGPUJobs returns GPU jobs (post-filter) using two or more GPUs.
func (d *Dataset) MultiGPUJobs() []*JobRecord {
	var out []*JobRecord
	for _, j := range d.GPUJobs() {
		if j.NumGPUs >= 2 {
			out = append(out, j)
		}
	}
	return out
}

// Users returns the sorted distinct user indices over all jobs.
func (d *Dataset) Users() []int {
	seen := map[int]bool{}
	for i := range d.Jobs {
		seen[d.Jobs[i].User] = true
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// ByUser groups the GPU-job analysis population by user.
func (d *Dataset) ByUser() map[int][]*JobRecord {
	out := map[int][]*JobRecord{}
	for _, j := range d.GPUJobs() {
		out[j.User] = append(out[j.User], j)
	}
	return out
}

// ByInterface groups the GPU-job analysis population by submission
// interface.
func (d *Dataset) ByInterface() map[Interface][]*JobRecord {
	out := map[Interface][]*JobRecord{}
	for _, j := range d.GPUJobs() {
		out[j.Interface] = append(out[j.Interface], j)
	}
	return out
}

// Validate checks every record and the series linkage.
func (d *Dataset) Validate() error {
	ids := make(map[int64]bool, len(d.Jobs))
	for i := range d.Jobs {
		j := &d.Jobs[i]
		if err := j.Validate(); err != nil {
			return err
		}
		if ids[j.JobID] {
			return fmt.Errorf("trace: duplicate job id %d", j.JobID)
		}
		ids[j.JobID] = true
	}
	for id := range d.Series {
		if !ids[id] {
			return fmt.Errorf("trace: time series for unknown job %d", id)
		}
	}
	return nil
}

// MaxValues extracts one metric's per-job max across jobs.
func MaxValues(jobs []*JobRecord, m metrics.Metric) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.GPU[m].Max
	}
	return out
}
