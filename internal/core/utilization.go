package core

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// UtilizationResult is Fig. 4a: CDFs of average SM, memory-bandwidth and
// memory-size utilization, plus the >50 % fractions the paper quotes.
type UtilizationResult struct {
	SM, Mem, MemSize                CDFStat
	SMOver50, MemOver50, SizeOver50 float64
	// NearZeroSMFrac is §III's "a large portion of the jobs (≈30 %) have
	// close to zero GPU SM utilization" (mean SM below 5 %).
	NearZeroSMFrac float64
}

// Utilization computes Fig. 4a from the shared mean-utilization columns:
// one order-statistics view per metric serves the CDF and all threshold
// fractions without materializing a merged copy.
func Utilization(c *trace.Columns) UtilizationResult {
	sm := c.Mean[metrics.SMUtil].Stats()
	mem := c.Mean[metrics.MemUtil].Stats()
	msz := c.Mean[metrics.MemSize].Stats()
	return UtilizationResult{
		SM:             viewCDF(sm),
		Mem:            viewCDF(mem),
		MemSize:        viewCDF(msz),
		SMOver50:       sm.FractionAbove(50),
		MemOver50:      mem.FractionAbove(50),
		SizeOver50:     msz.FractionAbove(50),
		NearZeroSMFrac: sm.FractionBelow(5),
	}
}

// PCIeResult is Fig. 4b: PCIe Tx/Rx bandwidth-utilization CDFs with the
// Kolmogorov–Smirnov distance to a uniform law quantifying the paper's
// "linearly increasing empirical CDF" observation.
type PCIeResult struct {
	Tx, Rx                   CDFStat
	TxUniformKS, RxUniformKS float64
}

// PCIe computes Fig. 4b from the shared PCIe columns: one order-statistics
// view per direction serves both the curve digest and the KS distance.
func PCIe(c *trace.Columns) PCIeResult {
	tx := c.Mean[metrics.PCIeTx].Stats()
	rx := c.Mean[metrics.PCIeRx].Stats()
	return PCIeResult{
		Tx:          viewCDF(tx),
		Rx:          viewCDF(rx),
		TxUniformKS: tx.UniformityDistance(tx.Min(), tx.Max()),
		RxUniformKS: rx.UniformityDistance(rx.Min(), rx.Max()),
	}
}

// InterfaceResult is Fig. 5: utilization by submission interface.
type InterfaceResult struct {
	// Share is each interface's fraction of GPU jobs (paper: map-reduce 1 %,
	// batch 30 %, interactive 4 %, other 65 %).
	Share [trace.NumInterfaces]float64
	// SM and Mem hold per-interface distributions of job-average
	// utilization.
	SM  [trace.NumInterfaces]CDFStat
	Mem [trace.NumInterfaces]CDFStat
}

// ByInterface computes Fig. 5 from the per-interface mean-utilization
// columns.
func ByInterface(c *trace.Columns) InterfaceResult {
	var r InterfaceResult
	total := c.GPUJobs
	for iface, cols := range c.IfaceMean {
		if total > 0 {
			r.Share[iface] = float64(cols[0].N()) / float64(total)
		}
		r.SM[iface] = colCDF(cols[0])
		r.Mem[iface] = colCDF(cols[1])
	}
	return r
}

// PowerResult is Fig. 9a: CDFs of average and maximum GPU power draw.
type PowerResult struct {
	Avg, Max CDFStat
	// TDPWatts is the device limit for context (V100: 300 W).
	TDPWatts float64
}

// Power computes Fig. 9a from the power columns. The TDP reported is the
// maximum observed device capability; with a single-GPU-model fleet it is
// the V100's 300 W.
func Power(c *trace.Columns) PowerResult {
	return PowerResult{
		Avg:      colCDF(c.Mean[metrics.Power]),
		Max:      colCDF(c.Max[metrics.Power]),
		TDPWatts: 300,
	}
}

// GPUCountResult is Fig. 13: the job-size distribution and GPU-hour shares.
type GPUCountResult struct {
	// FracByCount[k] is the fraction of jobs using exactly k GPUs
	// (index 0 unused).
	FracByCount map[int]float64
	// SingleGPUFrac, MultiGPUFrac, Over2Frac, NinePlusFrac are the quoted
	// fractions (84 %, 16 %, 2.4 %, <1 %).
	SingleGPUFrac, MultiGPUFrac, Over2Frac, NinePlusFrac float64
	// HourShareBySizeClass splits total GPU hours over §V size classes.
	HourShareBySizeClass [4]float64
	// MultiGPUHourShare is the multi-GPU jobs' share of all GPU hours
	// (paper: ≈50 %).
	MultiGPUHourShare float64
}

// GPUCounts computes Fig. 13 from the GPU-count fold: job counts per GPU
// count, and GPU-hour sums accumulated in dataset order as the row scan
// would.
func GPUCounts(c *trace.Columns) GPUCountResult {
	r := GPUCountResult{FracByCount: map[int]float64{}}
	if c.GPUJobs == 0 {
		return r
	}
	n := float64(c.GPUJobs)
	var single, multi, over2, ninePlus int
	for g, jobs := range c.GPUCounts.Jobs {
		r.FracByCount[g] = float64(jobs) / n
		if g == 1 {
			single += jobs
		} else {
			multi += jobs
		}
		if g > 2 {
			over2 += jobs
		}
		if g >= 9 {
			ninePlus += jobs
		}
	}
	r.SingleGPUFrac = float64(single) / n
	r.MultiGPUFrac = float64(multi) / n
	r.Over2Frac = float64(over2) / n
	r.NinePlusFrac = float64(ninePlus) / n
	if total := c.TotalGPUHours; total > 0 {
		for sc, h := range c.GPUCounts.HoursBySize {
			r.HourShareBySizeClass[sc] = h / total
		}
		r.MultiGPUHourShare = c.GPUCounts.MultiHours / total
	}
	return r
}

// MultiGPUResult is Fig. 14: variability of utilization across the GPUs of
// multi-GPU jobs, with and without idle GPUs.
type MultiGPUResult struct {
	// CoVAllGPUs and CoVActiveGPUs are distributions of the per-job CoV of
	// mean utilization across GPUs, for SM, memory and memory size.
	CoVAllGPUs    [3]CDFStat
	CoVActiveGPUs [3]CDFStat
	// IdleGPUJobFrac is the share of multi-GPU jobs with at least one idle
	// GPU (paper: ≈40 % have half or more idle).
	IdleGPUJobFrac float64
	// HalfIdleJobFrac is the share with half or more GPUs idle.
	HalfIdleJobFrac float64
}

// MultiGPU computes Fig. 14 from the per-job cross-GPU CoV columns and
// idle-GPU counters the projection fills as multi-GPU jobs are added.
func MultiGPU(c *trace.Columns) MultiGPUResult {
	var r MultiGPUResult
	m := &c.MultiGPU
	for k := range r.CoVAllGPUs {
		r.CoVAllGPUs[k] = colCDF(m.CoVAll[k])
		r.CoVActiveGPUs[k] = colCDF(m.CoVActive[k])
	}
	if m.Considered > 0 {
		r.IdleGPUJobFrac = float64(m.WithIdle) / float64(m.Considered)
		r.HalfIdleJobFrac = float64(m.HalfIdle) / float64(m.Considered)
	} else if m.Jobs > 0 {
		// Multi-GPU jobs exist but carry no per-GPU digests (the CSV path
		// flattens them): the idle-GPU question is unanswerable, not zero.
		r.IdleGPUJobFrac = math.NaN()
		r.HalfIdleJobFrac = math.NaN()
	}
	return r
}

func isNaN(v float64) bool { return v != v }
