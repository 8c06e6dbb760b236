package workload

import (
	"math"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// BuildDataset assembles a trace.Dataset from specs along the analytic path:
// GPU summaries are computed in closed form from each profile, and queue
// waits are drawn from the calibrated wait distributions (Fig. 3b, §V). The
// discrete-event path (internal/slurm) produces waits from first principles
// instead; this path exists so the utilization analyses can run at full
// paper scale cheaply.
func (g *Generator) BuildDataset(specs []JobSpec) *trace.Dataset {
	c := g.cfg.Calib
	ds := trace.NewDataset(g.cfg.DurationDays)
	rng := dist.New(g.cfg.Seed ^ 0xA5A5A5A5DEADBEEF)
	hostModel := DefaultHostLoadModel()

	gpuSlow := dist.LognormalFromMedianQuartile(c.GPUWaitSlowMedianSec, c.GPUWaitSlowQ75Sec)
	cpuSlow := dist.LognormalFromMedianQuartile(c.CPUWaitSlowMedianSec, c.CPUWaitSlowQ75Sec)

	for i := range specs {
		s := &specs[i]
		rec := trace.JobRecord{
			JobID:       s.ID,
			User:        s.User,
			Interface:   s.Interface,
			Exit:        s.Exit,
			SubmitSec:   s.SubmitSec,
			RunSec:      s.RunSec,
			LimitSec:    s.LimitSec,
			NumGPUs:     s.NumGPUs,
			CoresPerGPU: s.CoresPerGPU,
			Cores:       s.Cores,
			MemGB:       s.MemGB,
		}
		rec.HostCPU = hostModel.HostLoadDigest(s)
		if s.IsGPU() {
			rec.WaitSec = g.sampleGPUWait(s.NumGPUs, rng, gpuSlow)
			rec.MemGB = s.MemGBPerGPU * float64(s.NumGPUs)
			for _, p := range s.Profiles {
				rec.PerGPU = append(rec.PerGPU, p.Summaries(g.cfg.GPUSpec, g.cfg.PowerModel))
			}
			rec.FinalizeGPUSummary()
		} else {
			rec.WaitSec = g.sampleCPUWait(rng, cpuSlow)
		}
		ds.Add(rec)
	}
	g.attachSeries(ds, specs)
	return ds
}

// sampleGPUWait draws one GPU-job queue wait. Multi-GPU jobs are scheduled
// with high priority (§V: their median waits are no longer than single-GPU
// jobs').
func (g *Generator) sampleGPUWait(numGPUs int, rng *dist.RNG, slow dist.Lognormal) float64 {
	c := g.cfg.Calib
	var w float64
	if rng.Bool(c.GPUWaitFastFrac) {
		w = dist.Exponential{Mean: c.GPUWaitFastMeanSec}.Sample(rng)
	} else {
		w = slow.Sample(rng)
	}
	if numGPUs > 1 {
		w *= c.MultiGPUWaitFactor
	}
	return w
}

// sampleCPUWait draws one CPU-job queue wait (longer: whole-node requests
// must drain nodes first).
func (g *Generator) sampleCPUWait(rng *dist.RNG, slow dist.Lognormal) float64 {
	c := g.cfg.Calib
	if rng.Bool(c.CPUWaitFastFrac) {
		return dist.Exponential{Mean: c.CPUWaitFastMeanSec}.Sample(rng)
	}
	return slow.Sample(rng)
}

// attachSeries generates the detailed-monitoring subset: TimeSeriesJobs GPU
// jobs spread evenly over the population, sampled from their profiles at the
// configured cadence (coarsened for very long jobs to bound memory).
func (g *Generator) attachSeries(ds *trace.Dataset, specs []JobSpec) {
	want := g.cfg.TimeSeriesJobs
	if want <= 0 {
		return
	}
	// Candidates: analysis-eligible GPU jobs, in submission order.
	var cands []*JobSpec
	for i := range specs {
		if specs[i].IsGPU() && specs[i].RunSec >= trace.MinGPUJobRunSec {
			cands = append(cands, &specs[i])
		}
	}
	if len(cands) == 0 {
		return
	}
	stride := len(cands) / want
	if stride < 1 {
		stride = 1
	}
	taken := 0
	for i := 0; i < len(cands) && taken < want; i += stride {
		s := cands[i]
		ds.AttachSeries(g.SampleSeries(s))
		taken++
	}
}

// seriesChunk is how many grid times SampleSeries hands Profile.SampleTimes
// at once.
const seriesChunk = 256

// SampleSeries runs the sampler over every GPU of one job, producing its
// detailed time series. The cadence is the configured interval, stretched
// when the job would otherwise exceed MaxSeriesSamples.
func (g *Generator) SampleSeries(s *JobSpec) *trace.TimeSeries {
	interval := g.cfg.TimeSeriesIntervalSec
	if max := g.cfg.MaxSeriesSamples; max > 0 {
		if n := s.RunSec / interval; n > float64(max) {
			interval = s.RunSec / float64(max)
		}
	}
	ts := &trace.TimeSeries{JobID: s.ID, IntervalSec: interval}
	rng := dist.New(g.cfg.Seed ^ uint64(s.ID)*0x2545F4914F6CDD1D)
	n := int(math.Floor(s.RunSec / interval))
	if n < 1 {
		n = 1
	}
	power := gpu.NewMeter(g.cfg.PowerModel, g.cfg.GPUSpec)
	var times [seriesChunk]float64
	var obs [seriesChunk]gpu.Utilization
	for _, p := range s.Profiles {
		stream := make([]metrics.Sample, n)
		for k0 := 0; k0 < n; k0 += seriesChunk {
			chunk := stream[k0:min(n, k0+seriesChunk)]
			for j := range chunk {
				times[j] = (float64(k0+j) + 0.5) * interval
			}
			p.SampleTimes(times[:len(chunk)], obs[:], rng)
			for j, u := range obs[:len(chunk)] {
				chunk[j] = metrics.Sample{
					TimeSec: times[j],
					Values: [metrics.NumMetrics]float64{
						metrics.SMUtil:  u.SMPct,
						metrics.MemUtil: u.MemPct,
						metrics.MemSize: u.MemSizePct,
						metrics.PCIeTx:  u.PCIeTxPct,
						metrics.PCIeRx:  u.PCIeRxPct,
						metrics.Power:   power.Watts(u),
					},
				}
			}
		}
		ts.PerGPU = append(ts.PerGPU, stream)
	}
	return ts
}
