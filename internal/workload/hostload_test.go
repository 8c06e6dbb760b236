package workload

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestHostLoadModelPhases(t *testing.T) {
	m := DefaultHostLoadModel()
	// CPU job: constant high load.
	cpu := &JobSpec{RunSec: 600, Cores: 40}
	if got := m.HostLoadAt(cpu, 100); got != m.CPUJobPct {
		t.Fatalf("cpu job load = %v", got)
	}
	// GPU job alternating idle/active.
	p := mustProfile(t, []Phase{
		{DurSec: 300, Active: false},
		{DurSec: 300, Active: true, Level: gpuLevel(50)},
	}, 0)
	spec := &JobSpec{RunSec: 600, NumGPUs: 1, Interface: trace.Batch, Profiles: []*Profile{p}}
	if got := m.HostLoadAt(spec, 100); got != m.GPUIdlePct {
		t.Fatalf("gpu-idle host load = %v, want %v", got, m.GPUIdlePct)
	}
	if got := m.HostLoadAt(spec, 400); got != m.GPUActivePct {
		t.Fatalf("gpu-active host load = %v, want %v", got, m.GPUActivePct)
	}
	// Interactive idle is near zero.
	spec.Interface = trace.Interactive
	if got := m.HostLoadAt(spec, 100); got != m.InteractiveIdlePct {
		t.Fatalf("interactive idle load = %v", got)
	}
}

func TestHostLoadDigestMatchesSampling(t *testing.T) {
	m := DefaultHostLoadModel()
	p := mustProfile(t, []Phase{
		{DurSec: 400, Active: false},
		{DurSec: 600, Active: true, Level: gpuLevel(40)},
	}, 0)
	spec := &JobSpec{RunSec: 1000, NumGPUs: 1, Interface: trace.Batch, Profiles: []*Profile{p}}
	digest := m.HostLoadDigest(spec)
	if !digest.Valid() {
		t.Fatalf("digest invalid: %+v", digest)
	}
	_, sampledMean, _ := m.hostLoadSummary(spec, 10, dist.New(1))
	if math.Abs(digest.Mean-sampledMean) > 3 {
		t.Fatalf("analytic mean %v vs sampled %v", digest.Mean, sampledMean)
	}
	// Expected mean: 0.6*35 + 0.4*70 = 49.
	if math.Abs(digest.Mean-49) > 1e-9 {
		t.Fatalf("digest mean = %v, want 49", digest.Mean)
	}
}

func TestHostLoadSupportsColocationClaim(t *testing.T) {
	// §III: GPU jobs are CPU-light relative to CPU jobs; the generated
	// population must reproduce that ordering.
	_, _, ds := calibDataset(t)
	var gpuMeans, cpuMeans []float64
	for i := range ds.Jobs {
		j := &ds.Jobs[i]
		if j.IsGPU() {
			gpuMeans = append(gpuMeans, j.HostCPU.Mean)
		} else {
			cpuMeans = append(cpuMeans, j.HostCPU.Mean)
		}
	}
	if stats.Median(gpuMeans) >= stats.Median(cpuMeans) {
		t.Fatalf("GPU jobs not CPU-light: %v vs %v", stats.Median(gpuMeans), stats.Median(cpuMeans))
	}
	for _, v := range gpuMeans {
		if v < 0 || v > 100 {
			t.Fatalf("host load %v out of range", v)
		}
	}
	var rec metrics.SummaryRecord = ds.Jobs[0].HostCPU
	if !rec.Valid() {
		t.Fatalf("host digest invalid: %+v", rec)
	}
}

func gpuLevel(sm float64) gpu.Utilization {
	return gpu.Utilization{SMPct: sm}
}

// hostLoadSummary computes the 10-second-cadence host-CPU digest of a job
// by sampling — the §II collection path the analytic HostLoadDigest is
// cross-checked against.
func (m HostLoadModel) hostLoadSummary(spec *JobSpec, intervalSec float64, rng *dist.RNG) (min, mean, max float64) {
	if intervalSec <= 0 {
		intervalSec = 10
	}
	n := int(spec.RunSec / intervalSec)
	if n < 1 {
		n = 1
	}
	first := true
	var sum float64
	for k := 0; k < n; k++ {
		t := (float64(k) + 0.5) * intervalSec
		v := m.SampleHostLoad(spec, t, rng)
		sum += v
		if first {
			min, max = v, v
			first = false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, sum / float64(n), max
}

// HostLoadAt returns the noiseless host-CPU utilization of spec at time t:
// the sampled model that HostLoadDigest is cross-checked against.
func (m HostLoadModel) HostLoadAt(spec *JobSpec, t float64) float64 {
	if !spec.IsGPU() {
		return m.CPUJobPct
	}
	// Any GPU active → the host is feeding it.
	active := false
	for _, p := range spec.Profiles {
		u := p.LevelAt(t)
		if u.SMPct > 1 || u.MemPct > 1 {
			active = true
			break
		}
	}
	if active {
		return m.GPUActivePct
	}
	if spec.Interface == trace.Interactive {
		return m.InteractiveIdlePct
	}
	return m.GPUIdlePct
}

// hostLoadNoiseRelPct is the relative sampling noise, in percent, of the
// sampled host-load model.
const hostLoadNoiseRelPct = 10

// SampleHostLoad returns the observed host load at t with relative noise.
func (m HostLoadModel) SampleHostLoad(spec *JobSpec, t float64, rng *dist.RNG) float64 {
	v := m.HostLoadAt(spec, t)
	if v > 0 {
		v *= 1 + hostLoadNoiseRelPct/100.0*rng.NormFloat64()
	}
	if v < 0 {
		v = 0
	}
	if v > 100 {
		v = 100
	}
	return v
}
