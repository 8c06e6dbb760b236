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

// Interval is one contiguous active or idle stretch detected in a job's
// time series.
type Interval struct {
	Active   bool
	StartSec float64
	DurSec   float64
}

// SegmentSeries turns a job's time series into alternating intervals: a
// sample is active when any GPU shows SM or memory-bandwidth activity. This
// is the segmentation behind Fig. 6.
func SegmentSeries(ts *trace.TimeSeries) []Interval {
	if ts == nil || len(ts.PerGPU) == 0 || len(ts.PerGPU[0]) == 0 {
		return nil
	}
	n := len(ts.PerGPU[0])
	var out []Interval
	for k := 0; k < n; k++ {
		active := sampleActive(ts, k)
		t := float64(k) * ts.IntervalSec
		if len(out) > 0 && out[len(out)-1].Active == active {
			out[len(out)-1].DurSec += ts.IntervalSec
			continue
		}
		out = append(out, Interval{Active: active, StartSec: t, DurSec: ts.IntervalSec})
	}
	return out
}

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
// reproducing the SegmentSeries walk bit for bit.
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

// bottleneckThresholdPct: a job is bottlenecked on a metric when its
// recorded maximum reaches the capacity (the paper's definition); 99 %
// tolerates sampling discretization.
const bottleneckThresholdPct = 99

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

// Bottlenecks computes Figs. 7b/8 over the columnar GPU population.
func Bottlenecks(c *trace.Columns) BottleneckResult {
	jobs := c.GPU
	r := BottleneckResult{
		SingleFrac: map[metrics.Metric]float64{},
		PairFrac:   map[[2]metrics.Metric]float64{},
		Jobs:       len(jobs),
	}
	if len(jobs) == 0 {
		return r
	}
	hit := func(j *trace.JobRecord, m metrics.Metric) bool {
		if len(j.PerGPU) > 0 {
			for _, g := range j.PerGPU {
				if g[m].Max >= bottleneckThresholdPct {
					return true
				}
			}
			return false
		}
		return j.GPU[m].Max >= bottleneckThresholdPct
	}
	var anyTwo float64
	hits := make([]metrics.Metric, 0, len(metrics.BottleneckMetrics))
	for _, j := range jobs {
		hits = hits[:0]
		for _, m := range metrics.BottleneckMetrics {
			if hit(j, m) {
				r.SingleFrac[m]++
				hits = append(hits, m)
			}
		}
		for a := 0; a < len(hits); a++ {
			for b := a + 1; b < len(hits); b++ {
				key := [2]metrics.Metric{hits[a], hits[b]}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				r.PairFrac[key]++
			}
		}
		if len(hits) >= 2 {
			anyTwo++
		}
	}
	n := float64(len(jobs))
	for m := range r.SingleFrac {
		r.SingleFrac[m] /= n
	}
	for k := range r.PairFrac {
		r.PairFrac[k] /= n
	}
	r.AnyTwoFrac = anyTwo / n
	return r
}
