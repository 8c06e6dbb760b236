package trace

import "fmt"

// Row-at-a-time forms of SegStore and Dataset operations that only the
// tests use: the columnar and batched paths replace them in production.

// Append adds one job record, the streaming counterpart of Dataset.Add: the
// record is projected into every column immediately, so the cost is O(1)
// amortized and no later query ever rebuilds. If GPU telemetry for the job
// was staged via StageTelemetry, it is joined here (PerGPU adopted, series
// attached) before projection.
func (st *SegStore) Append(j JobRecord) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.appendLocked(j)
	st.maybeSealLocked()
}

// AttachSeries stores the detailed time series of a job.
func (st *SegStore) AttachSeries(ts *TimeSeries) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.series[ts.JobID] = ts
	st.gen++
	st.snap = nil
}

// Validate checks every appended record and the series linkage, the
// streaming counterpart of Dataset.Validate.
func (st *SegStore) Validate() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make(map[int64]bool, st.nJobs)
	for _, chunk := range st.chunks {
		for i := range chunk {
			j := &chunk[i]
			if err := j.Validate(); err != nil {
				return err
			}
			if ids[j.JobID] {
				return fmt.Errorf("trace: duplicate job id %d", j.JobID)
			}
			ids[j.JobID] = true
		}
	}
	for id := range st.series {
		if !ids[id] {
			return fmt.Errorf("trace: time series for unknown job %d", id)
		}
	}
	return nil
}

// TotalGPUHours sums GPU hours over the analysis population.
func (d *Dataset) TotalGPUHours() float64 {
	var total float64
	for _, j := range d.GPUJobs() {
		total += j.GPUHours()
	}
	return total
}

// Duration returns the covered time span in seconds.
func (ts *TimeSeries) Duration() float64 {
	if len(ts.PerGPU) == 0 || len(ts.PerGPU[0]) == 0 {
		return 0
	}
	return float64(len(ts.PerGPU[0])) * ts.IntervalSec
}

// Values returns the column in dataset order, for the tests that check it
// value by value; the figures read sums, folds and sorted runs instead.
// Callers must not mutate it.
func (c *FloatColumn) Values() []float64 {
	if c == nil {
		return nil
	}
	return c.vals
}
