package workload

import (
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Host-CPU load modeling (§II: "CPU time series data is collected at
// 10-second intervals"; §III: "GPU jobs do not tend to have high CPU
// resource requirements"). A job's host-CPU utilization is derived from its
// GPU activity rather than stored: while the GPUs compute, the host mostly
// feeds them (moderate load on its few requested cores); while the GPUs
// idle, the host is either preprocessing (higher load) or waiting on the
// user (interactive sessions, near zero).

// HostLoadModel converts a job's instantaneous GPU state into host-CPU
// utilization as a percentage of the job's *requested* cores.
type HostLoadModel struct {
	// GPUActivePct is the host load while GPUs compute (input pipelines).
	GPUActivePct float64
	// GPUIdlePct is the host load during GPU-idle phases of batch-style
	// jobs (preprocessing, data staging).
	GPUIdlePct float64
	// InteractiveIdlePct is the host load during GPU-idle phases of
	// interactive sessions (user think-time: almost nothing).
	InteractiveIdlePct float64
	// CPUJobPct is the load of CPU-only jobs (they requested those cores to
	// use them).
	CPUJobPct float64
}

// DefaultHostLoadModel returns the calibrated model: GPU jobs keep their
// small core slice moderately busy, CPU jobs burn theirs.
func DefaultHostLoadModel() HostLoadModel {
	return HostLoadModel{
		GPUActivePct:       35,
		GPUIdlePct:         70,
		InteractiveIdlePct: 4,
		CPUJobPct:          88,
	}
}

// HostLoadDigest computes the host-CPU digest analytically from the job's
// phase structure — the fast path used when building paper-scale datasets.
// The GPU-active share is the maximum active fraction across the job's GPUs
// (active devices run near-synchronously; idle devices never wake).
func (m HostLoadModel) HostLoadDigest(spec *JobSpec) metrics.SummaryRecord {
	if !spec.IsGPU() {
		return metrics.SummaryRecord{Min: m.CPUJobPct, Mean: m.CPUJobPct, Max: m.CPUJobPct}
	}
	var af float64
	for _, p := range spec.Profiles {
		if f := p.ActiveFraction(); f > af {
			af = f
		}
	}
	idle := m.GPUIdlePct
	if spec.Interface == trace.Interactive {
		idle = m.InteractiveIdlePct
	}
	rec := metrics.SummaryRecord{Mean: af*m.GPUActivePct + (1-af)*idle}
	lo, hi := m.GPUActivePct, idle
	if lo > hi {
		lo, hi = hi, lo
	}
	switch {
	case af >= 1:
		rec.Min, rec.Max = m.GPUActivePct, m.GPUActivePct
	case af <= 0:
		rec.Min, rec.Max = idle, idle
	default:
		rec.Min, rec.Max = lo, hi
	}
	return rec
}
