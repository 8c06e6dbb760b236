// Package trace defines the dataset the whole study revolves around: the
// per-job records produced by joining Slurm accounting logs with nvidia-smi
// GPU summaries on job ID (the paper's §II methodology), the detailed
// time-series subset, and codecs for moving datasets through files.
package trace

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// Interface is the submission interface through which a job entered the
// system. Supercloud exposes dedicated interfaces for map-reduce, batch and
// interactive jobs; everything else (mostly deep-learning training) arrives
// via the general Slurm interface and is recorded as "other" (paper Fig. 5).
type Interface int

// The four submission interfaces.
const (
	MapReduce Interface = iota
	Batch
	Interactive
	Other

	NumInterfaces
)

// String returns the interface name used in figure labels.
func (i Interface) String() string {
	switch i {
	case MapReduce:
		return "map-reduce"
	case Batch:
		return "batch"
	case Interactive:
		return "interactive"
	case Other:
		return "other"
	default:
		return fmt.Sprintf("interface(%d)", int(i))
	}
}

// ExitStatus is the terminal disposition of a job, the observable the
// life-cycle classifier works from.
type ExitStatus int

// Terminal dispositions.
const (
	// ExitSuccess is a zero exit code: the job ran to completion.
	ExitSuccess ExitStatus = iota
	// ExitCancelled is a user-initiated termination before completion
	// (scancel), typical of abandoned hyper-parameter explorations.
	ExitCancelled
	// ExitTimeout is a wall-clock limit kill.
	ExitTimeout
	// ExitFailed is a non-zero exit code (crash, assertion, OOM).
	ExitFailed

	// NumExitStatuses bounds the enum so table-driven consumers (the
	// life-cycle classifier) can prove exhaustiveness over every
	// (ExitStatus × Interface) pair.
	NumExitStatuses
)

// String returns the status name.
func (e ExitStatus) String() string {
	switch e {
	case ExitSuccess:
		return "success"
	case ExitCancelled:
		return "cancelled"
	case ExitTimeout:
		return "timeout"
	case ExitFailed:
		return "failed"
	default:
		return fmt.Sprintf("exit(%d)", int(e))
	}
}

// Category is the algorithm-development life-cycle stage of a job, the
// paper's §VI contribution: mature (finalized code), exploratory
// (hyper-parameter search, terminated by the user), development (code under
// debug), and IDE (long interactive design sessions).
type Category int

// Life-cycle categories.
const (
	Mature Category = iota
	Exploratory
	Development
	IDE

	NumCategories
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case Mature:
		return "mature"
	case Exploratory:
		return "exploratory"
	case Development:
		return "development"
	case IDE:
		return "ide"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// categoryTable is the paper's §VI decision table, spelled out over every
// (ExitStatus × Interface) pair so the mapping is auditable at a glance and
// the exhaustiveness test can sweep it cell by cell. Only one cell depends on
// the interface: a timeout in an interactive session is an IDE job riding its
// wall-clock limit; every other timeout — and every crash, interactive or not
// (the paper's development jobs fail under debug regardless of how they were
// launched) — is Development.
var categoryTable = [NumExitStatuses][NumInterfaces]Category{
	ExitSuccess: {
		MapReduce:   Mature,
		Batch:       Mature,
		Interactive: Mature,
		Other:       Mature,
	},
	ExitCancelled: {
		MapReduce:   Exploratory,
		Batch:       Exploratory,
		Interactive: Exploratory,
		Other:       Exploratory,
	},
	ExitTimeout: {
		MapReduce:   Development,
		Batch:       Development,
		Interactive: IDE,
		Other:       Development,
	},
	ExitFailed: {
		MapReduce:   Development,
		Batch:       Development,
		Interactive: Development,
		Other:       Development,
	},
}

// CategoryOf is the §VI life-cycle classifier over the two observables it
// reads. The mapping is total: an out-of-range status is code in an unknown
// terminal state — still under debug, so Development — and an out-of-range
// interface is simply not an interactive session.
func CategoryOf(exit ExitStatus, iface Interface) Category {
	if exit < 0 || exit >= NumExitStatuses {
		return Development
	}
	if iface < 0 || iface >= NumInterfaces {
		iface = Other
	}
	return categoryTable[exit][iface]
}

// JobRecord is one row of the joined dataset. Durations are stored as
// float64 seconds because that is what every downstream estimator consumes.
type JobRecord struct {
	JobID int64
	User  int // anonymized user index

	Interface Interface
	Exit      ExitStatus

	SubmitSec float64 // submission time, seconds since trace start
	WaitSec   float64 // queue wait
	RunSec    float64 // execution time
	LimitSec  float64 // requested wall-clock limit (timeout)

	NumGPUs     int
	CoresPerGPU int     // host-CPU slice per GPU (0 for CPU jobs)
	Cores       int     // total cores for CPU-only jobs
	MemGB       float64 // host memory request

	// PerGPU holds the nvidia-smi digest of each allocated GPU; nil for CPU
	// jobs. GPU holds their average, the paper's per-job number.
	PerGPU []metrics.MetricSummaries
	GPU    metrics.MetricSummaries

	// HostCPU is the 10-second-cadence host-CPU utilization digest (§II's
	// CPU time series), as a percentage of the job's requested cores.
	HostCPU metrics.SummaryRecord

	// Requeues counts how many times failures killed and requeued the job
	// before it completed; zero in a fault-free trace.
	Requeues int
	// FailureLossSec is the wall time destroyed by those failed attempts
	// (after any checkpoint credit).
	FailureLossSec float64
}

// IsGPU reports whether the job requested any GPU.
func (j *JobRecord) IsGPU() bool { return j.NumGPUs > 0 }

// ServiceSec returns wait + run, the denominator of Fig. 3b.
func (j *JobRecord) ServiceSec() float64 { return j.WaitSec + j.RunSec }

// WaitFraction returns the queue wait as a percentage of service time
// (Fig. 3b's y-axis), or 0 for a zero-service job.
func (j *JobRecord) WaitFraction() float64 {
	s := j.ServiceSec()
	if s <= 0 {
		return 0
	}
	return j.WaitSec / s * 100
}

// GPUHours returns NumGPUs × run time in hours, the accounting unit of
// Figs. 13b, 15b and 17b.
func (j *JobRecord) GPUHours() float64 {
	return float64(j.NumGPUs) * j.RunSec / 3600
}

// FinalizeGPUSummary recomputes the averaged GPU digest from PerGPU,
// following the paper's stated methodology for multi-GPU jobs.
func (j *JobRecord) FinalizeGPUSummary() {
	j.GPU = metrics.Averaged(j.PerGPU)
}

// Validate reports structural problems with the record. Non-finite values
// (NaN, ±Inf) are rejected in every float field: JSON cannot encode them, so
// permitting them on the CSV path would make the two codecs diverge on the
// same dataset. Note that NaN slips through the negative checks below (every
// comparison with NaN is false), so finiteness must be tested explicitly.
func (j *JobRecord) Validate() error {
	switch {
	case j.JobID < 0:
		return fmt.Errorf("trace: job %d: negative id", j.JobID)
	case j.User < 0:
		return fmt.Errorf("trace: job %d: negative user", j.JobID)
	case j.RunSec < 0 || j.WaitSec < 0 || j.SubmitSec < 0 || j.LimitSec < 0:
		return fmt.Errorf("trace: job %d: negative time fields", j.JobID)
	case j.NumGPUs < 0:
		return fmt.Errorf("trace: job %d: negative GPU count", j.JobID)
	case j.Cores < 0 || j.CoresPerGPU < 0 || j.MemGB < 0:
		return fmt.Errorf("trace: job %d: negative core or memory request", j.JobID)
	case j.Interface < 0 || j.Interface >= NumInterfaces:
		return fmt.Errorf("trace: job %d: interface %d out of range", j.JobID, j.Interface)
	case j.Exit < 0 || j.Exit >= NumExitStatuses:
		return fmt.Errorf("trace: job %d: exit status %d out of range", j.JobID, j.Exit)
	case j.NumGPUs > 0 && len(j.PerGPU) > 0 && len(j.PerGPU) != j.NumGPUs:
		return fmt.Errorf("trace: job %d: %d GPU summaries for %d GPUs", j.JobID, len(j.PerGPU), j.NumGPUs)
	case j.Requeues < 0:
		return fmt.Errorf("trace: job %d: negative requeue count", j.JobID)
	case j.FailureLossSec < 0:
		return fmt.Errorf("trace: job %d: negative failure loss", j.JobID)
	}
	if !finite(j.SubmitSec, j.WaitSec, j.RunSec, j.LimitSec, j.MemGB, j.FailureLossSec) {
		return fmt.Errorf("trace: job %d: non-finite scheduler field", j.JobID)
	}
	if !summaryFinite(j.HostCPU) {
		return fmt.Errorf("trace: job %d: non-finite host-CPU summary", j.JobID)
	}
	for m := range j.GPU {
		if !summaryFinite(j.GPU[m]) {
			return fmt.Errorf("trace: job %d: non-finite GPU summary for %s", j.JobID, metrics.Metric(m))
		}
	}
	for g, ms := range j.PerGPU {
		for m := range ms {
			if !summaryFinite(ms[m]) {
				return fmt.Errorf("trace: job %d: non-finite summary for GPU %d, %s", j.JobID, g, metrics.Metric(m))
			}
		}
	}
	return nil
}

// finite reports whether every value is a finite float.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// summaryFinite reports whether a min/mean/max digest is fully finite.
func summaryFinite(s metrics.SummaryRecord) bool { return finite(s.Min, s.Mean, s.Max) }

// TimeSeries is the detailed 100 ms-class log of one job: one sample stream
// per allocated GPU. The paper collected this for a 2,149-job subset.
type TimeSeries struct {
	JobID       int64
	IntervalSec float64            // sampling cadence
	PerGPU      [][]metrics.Sample // one stream per GPU
}
