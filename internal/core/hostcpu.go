package core

import "repro/internal/trace"

// HostCPUResult supports the paper's §III scheduling rationale: "our system
// administrators have determined that GPU jobs do not tend to have high CPU
// resource requirements", the premise that makes CPU-slice co-location safe.
type HostCPUResult struct {
	// GPUJobs and CPUJobs are distributions of mean host-CPU utilization
	// (percent of the job's requested cores).
	GPUJobs CDFStat
	CPUJobs CDFStat
	// GPUJobsUnder50Frac is the share of GPU jobs using less than half of
	// their (already small) host-core slice.
	GPUJobsUnder50Frac float64
}

// HostCPU computes the comparison from the host-CPU columns; the GPU
// column's order-statistics view serves both the CDF and the under-50 %
// fraction.
func HostCPU(c *trace.Columns) HostCPUResult {
	gpuJobs := c.HostCPU.Stats()
	return HostCPUResult{
		GPUJobs:            viewCDF(gpuJobs),
		CPUJobs:            colCDF(c.CPUHostCPU),
		GPUJobsUnder50Frac: gpuJobs.FractionBelow(50),
	}
}
