package core

import (
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// activeSampleThresholdPct is the utilization above which a sample counts as
// GPU activity; idle GPUs read 0 in nvidia-smi, so any compute or bandwidth
// reading above noise means the GPU is in use.
const activeSampleThresholdPct = 1.0

// sampleActive reports whether sample k of any GPU stream shows activity.
func sampleActive(ts *trace.TimeSeries, k int) bool {
	for _, stream := range ts.PerGPU {
		if k >= len(stream) {
			continue
		}
		v := stream[k].Values
		if v[metrics.SMUtil] > activeSampleThresholdPct || v[metrics.MemUtil] > activeSampleThresholdPct {
			return true
		}
	}
	return false
}

// welford is a streaming mean/variance accumulator replicating
// stats.MeanVariance update for update, so a fused scan produces the same
// bits as collecting values into a slice and calling stats.CoV.
type welford struct {
	n  int
	m  float64
	m2 float64
}

func (w *welford) add(x float64) {
	delta := x - w.m
	w.n++
	w.m += delta / float64(w.n)
	w.m2 += delta * (x - w.m)
}

// covPct finishes the accumulator exactly as stats.CoV does for n >= 2:
// population variance, NaN on zero mean, stddev/|mean|×100 otherwise.
func (w *welford) covPct() float64 {
	v := w.m2 / float64(w.n)
	if w.m == 0 {
		return math.NaN()
	}
	return math.Sqrt(v) / math.Abs(w.m) * 100
}

// PhaseResult is Fig. 6: the distribution of active-time fractions (6a) and
// of the CoV of interval lengths (6b) over the detailed-monitoring subset.
type PhaseResult struct {
	ActiveTimePct CDFStat // Fig. 6a, percent of run time spent active
	IdleCoV       CDFStat // Fig. 6b, CoV of idle-interval lengths, percent
	ActiveCoVLen  CDFStat // Fig. 6b, CoV of active-interval lengths, percent
	JobsAnalyzed  int
}

// phaseAgg accumulates Fig. 6 across series without materializing intervals:
// segmentation state is carried inline and each closed segment feeds the
// duration totals and the per-kind length accumulators in segment order,
// reproducing the SegmentSeries walk (naive_test.go) bit for bit.
type phaseAgg struct {
	activePct []float64
	idleCoVs  []float64
	actCoVs   []float64
}

func (a *phaseAgg) addSeries(ts *trace.TimeSeries) {
	if ts == nil || len(ts.PerGPU) == 0 || len(ts.PerGPU[0]) == 0 {
		return
	}
	n := len(ts.PerGPU[0])
	var totalDur, activeDur float64
	var idleW, actW welford
	curActive := false
	curDur := 0.0
	flush := func() {
		totalDur += curDur
		if curActive {
			activeDur += curDur
			actW.add(curDur)
		} else {
			idleW.add(curDur)
		}
	}
	for k := 0; k < n; k++ {
		active := sampleActive(ts, k)
		if k > 0 && curActive == active {
			curDur += ts.IntervalSec
			continue
		}
		if k > 0 {
			flush()
		}
		curActive = active
		curDur = ts.IntervalSec
	}
	flush()
	a.activePct = append(a.activePct, activeDur/totalDur*100)
	if idleW.n >= 2 {
		if c := idleW.covPct(); !isNaN(c) {
			a.idleCoVs = append(a.idleCoVs, c)
		}
	}
	if actW.n >= 2 {
		if c := actW.covPct(); !isNaN(c) {
			a.actCoVs = append(a.actCoVs, c)
		}
	}
}

func (a *phaseAgg) result() PhaseResult {
	return PhaseResult{
		ActiveTimePct: ownedCDF(a.activePct),
		IdleCoV:       ownedCDF(a.idleCoVs),
		ActiveCoVLen:  ownedCDF(a.actCoVs),
		JobsAnalyzed:  len(a.activePct),
	}
}

// Phases computes Fig. 6 by streaming each series through the fused
// segmentation accumulator, in sorted-series order.
func Phases(c *trace.Columns) PhaseResult {
	var a phaseAgg
	for _, id := range c.SeriesIDs {
		a.addSeries(c.Series(id))
	}
	return a.result()
}

// ActiveVariabilityResult is Fig. 7a: the CoV of each utilization metric
// across a job's active samples.
type ActiveVariabilityResult struct {
	SMCoV, MemCoV, MemSizeCoV CDFStat
	// Over23Frac is the paper's "over 25 % of all jobs have SM utilization
	// CoV of 23 % or higher during their active phases".
	Over23Frac float64
}

// activeAgg accumulates Fig. 7a: per series, one Welford accumulator per
// metric over the active samples (stream-major, the order the row-walking
// implementation collected them in) instead of three slices re-read by CoV.
type activeAgg struct {
	smC, memC, mszC []float64
}

func (a *activeAgg) addSeries(ts *trace.TimeSeries) {
	var smW, memW, mszW welford
	for _, stream := range ts.PerGPU {
		for i := range stream {
			v := &stream[i].Values
			if v[metrics.SMUtil] > activeSampleThresholdPct ||
				v[metrics.MemUtil] > activeSampleThresholdPct {
				smW.add(v[metrics.SMUtil])
				memW.add(v[metrics.MemUtil])
				mszW.add(v[metrics.MemSize])
			}
		}
	}
	if smW.n < 2 {
		return
	}
	if c := smW.covPct(); !isNaN(c) {
		a.smC = append(a.smC, c)
	}
	if c := memW.covPct(); !isNaN(c) {
		a.memC = append(a.memC, c)
	}
	if c := mszW.covPct(); !isNaN(c) {
		a.mszC = append(a.mszC, c)
	}
}

func (a *activeAgg) result() ActiveVariabilityResult {
	sort.Float64s(a.smC)
	return ActiveVariabilityResult{
		SMCoV:      cdfFromECDF(stats.NewECDFSorted(a.smC)),
		MemCoV:     ownedCDF(a.memC),
		MemSizeCoV: ownedCDF(a.mszC),
		Over23Frac: stats.FractionAboveSorted(a.smC, 23),
	}
}

// ActiveVariability computes Fig. 7a in sorted-series order.
func ActiveVariability(c *trace.Columns) ActiveVariabilityResult {
	var a activeAgg
	for _, id := range c.SeriesIDs {
		a.addSeries(c.Series(id))
	}
	return a.result()
}

// phasesAndActivity computes Figs. 6 and 7a in a single pass over the
// detailed-monitoring subset: both analyses visit every sample of every
// series, so Characterize runs them as one task touching each series once.
func phasesAndActivity(c *trace.Columns) (PhaseResult, ActiveVariabilityResult) {
	var pa phaseAgg
	var aa activeAgg
	for _, id := range c.SeriesIDs {
		ts := c.Series(id)
		pa.addSeries(ts)
		aa.addSeries(ts)
	}
	return pa.result(), aa.result()
}

// BottleneckResult is Figs. 7b/8: per-resource and pairwise bottleneck
// fractions over the full GPU-job population (max utilization is recorded
// for every job, not only the detailed subset).
type BottleneckResult struct {
	// SingleFrac[m] is the fraction of jobs whose metric m hit capacity
	// (Fig. 7b radar / Fig. 8a bars).
	SingleFrac map[metrics.Metric]float64
	// PairFrac[{a,b}] is the fraction bottlenecked on both a and b during
	// the same run (Fig. 8b).
	PairFrac map[[2]metrics.Metric]float64
	// AnyTwoFrac is the fraction of jobs with two or more simultaneous
	// bottlenecks (paper: < 10 %).
	AnyTwoFrac float64
	Jobs       int
}

// Bottlenecks computes Figs. 7b/8 from the per-job hit counters the
// projection fills as jobs are added. Only metrics and pairs some job hit
// get a map entry.
func Bottlenecks(c *trace.Columns) BottleneckResult {
	r := BottleneckResult{
		SingleFrac: map[metrics.Metric]float64{},
		PairFrac:   map[[2]metrics.Metric]float64{},
		Jobs:       c.GPUJobs,
	}
	if r.Jobs == 0 {
		return r
	}
	n := float64(r.Jobs)
	b := &c.Bottlenecks
	for m, hits := range b.Single {
		if hits > 0 {
			r.SingleFrac[metrics.Metric(m)] = float64(hits) / n
		}
	}
	for lo := range b.Pair {
		for hi, hits := range b.Pair[lo] {
			if hits > 0 {
				r.PairFrac[[2]metrics.Metric{metrics.Metric(lo), metrics.Metric(hi)}] = float64(hits) / n
			}
		}
	}
	r.AnyTwoFrac = float64(b.AnyTwo) / n
	return r
}
