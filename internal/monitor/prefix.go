package monitor

// Prefix telemetry (ISSUE 7): the online prediction layer — the scheduler's
// prediction-aware backfill and the predictsched study — classifies RUNNING
// jobs from their first k monitor samples, the partial-telemetry task the
// MIT Supercloud Challenge (2204.05839) frames. PrefixDigest replays exactly
// the sampling grid JobMonitor.Run walks — t = (k+0.5)·interval per source —
// but stops after the prefix, folding the observations into a fixed-size
// digest of the features the classifier consumes.
//
// The digest is read-only with respect to the pipeline: it draws noise from
// its own RNG stream (PrefixRNG, salted differently from the prolog stream),
// so extracting a prefix never perturbs the full monitoring run's noise
// sequence, and a simulation with prediction enabled produces byte-identical
// telemetry to one without.

import "repro/internal/dist"

// prefixSalt decorrelates the prefix-observation stream from the monitoring
// pipeline's per-job prolog stream (which salts with 0x9E3779B97F4A7C15).
const prefixSalt = 0xA24BAED4963EE407

// PrefixRNG derives the deterministic noise stream for job jobID's prefix
// observations under the given monitor seed.
func PrefixRNG(seed uint64, jobID int64) *dist.RNG {
	return dist.New(seed ^ uint64(jobID)*prefixSalt)
}

// ActiveSMThresholdPct is the SM-utilization level above which a prefix
// sample counts as "active" — the same 5% floor the paper's activity
// analyses use to separate idle setup phases from computation.
const ActiveSMThresholdPct = 5.0

// PrefixDigest accumulates the first-k samples of a job's GPU sources into
// the feature means the online classifier reads. The zero value is ready to
// use; Accumulate may be called once per source (multi-GPU jobs fold every
// device into one digest, matching the per-job granularity of the
// scheduler's decision).
type PrefixDigest struct {
	Samples    int
	smSum      float64
	memSum     float64
	memSizeSum float64
	active     int
}

// Accumulate samples src on the monitor grid for at most k samples.
// Callers own the no-future-leakage contract: k must not exceed the samples
// available at the job's current elapsed time (elapsed/interval, rounded
// down) when digesting a still-running job.
func (d *PrefixDigest) Accumulate(src Source, k int, intervalSec float64, rng *dist.RNG) {
	if k <= 0 || intervalSec <= 0 {
		return
	}
	dur := src.TotalSec()
	n := int(dur / intervalSec)
	if n < 1 {
		n = 1 // JobMonitor.Run's floor: even a sub-interval job yields one sample
	}
	if n > k {
		n = k
	}
	c := chunkPool.Get().(*chunk)
	defer chunkPool.Put(c)
	for k0 := 0; k0 < n; k0 += sampleChunk {
		ts := c.ts[:min(n-k0, sampleChunk)]
		for j := range ts {
			ts[j] = gridTime(k0+j, intervalSec)
		}
		src.SampleTimes(ts, c.us[:len(ts)], rng)
		for _, u := range c.us[:len(ts)] {
			d.Samples++
			d.smSum += u.SMPct
			d.memSum += u.MemPct
			d.memSizeSum += u.MemSizePct
			if u.SMPct > ActiveSMThresholdPct {
				d.active++
			}
		}
	}
}

// SMMean is the mean SM utilization over the prefix (0 with no samples).
func (d *PrefixDigest) SMMean() float64 {
	if d.Samples == 0 {
		return 0
	}
	return d.smSum / float64(d.Samples)
}

// MemMean is the mean memory-bandwidth utilization over the prefix.
func (d *PrefixDigest) MemMean() float64 {
	if d.Samples == 0 {
		return 0
	}
	return d.memSum / float64(d.Samples)
}

// MemSizeMean is the mean memory-footprint fraction over the prefix.
func (d *PrefixDigest) MemSizeMean() float64 {
	if d.Samples == 0 {
		return 0
	}
	return d.memSizeSum / float64(d.Samples)
}

// ActiveFrac is the fraction of prefix samples above the activity floor.
func (d *PrefixDigest) ActiveFrac() float64 {
	if d.Samples == 0 {
		return 0
	}
	return float64(d.active) / float64(d.Samples)
}
