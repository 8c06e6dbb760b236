package stats

import (
	"math"
	"sort"
)

// Agg accumulates one scalar metric across simulation replications. It keeps
// both O(1) streaming moments (so huge batches stay cheap to merge) and the
// raw per-replication values in fold order (so quantiles, ECDFs and
// bootstrap confidence intervals over the replication distribution remain
// available). Folding the same values in the same order always produces the
// same state, which is what lets the replication engine promise bit-
// identical summaries regardless of how many workers computed the values.
type Agg struct {
	moments Streaming
	values  []float64
}

// Add folds one replication's value into the aggregate. NaNs are recorded in
// the moments-bypassing value list so N() still counts them, but they are
// excluded from moments and quantiles (a NaN metric means "undefined for
// this replication", e.g. a CoV over an empty group).
func (a *Agg) Add(v float64) {
	a.values = append(a.values, v)
	if !math.IsNaN(v) {
		a.moments.Add(v)
	}
}

// N returns the number of replications folded in, including NaNs.
func (a *Agg) N() int { return len(a.values) }

// Defined returns the number of non-NaN replication values.
func (a *Agg) Defined() int { return a.moments.N() }

// Mean returns the across-replication mean (NaN before any defined value).
func (a *Agg) Mean() float64 { return a.moments.Mean() }

// StdDev returns the across-replication population standard deviation.
func (a *Agg) StdDev() float64 { return a.moments.StdDev() }

// Min returns the smallest defined value, or NaN.
func (a *Agg) Min() float64 { return a.moments.Min() }

// Max returns the largest defined value, or NaN.
func (a *Agg) Max() float64 { return a.moments.Max() }

// Values returns the per-replication values in fold order. The slice is the
// aggregate's backing store; callers must not mutate it.
func (a *Agg) Values() []float64 { return a.values }

// defined returns the non-NaN values, freshly allocated.
func (a *Agg) defined() []float64 {
	out := make([]float64, 0, len(a.values))
	for _, v := range a.values {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// Quantile returns the p-quantile of the replication distribution.
func (a *Agg) Quantile(p float64) float64 {
	d := a.defined()
	if len(d) == 0 {
		return math.NaN()
	}
	sort.Float64s(d)
	return quantileSorted(d, p)
}

// Median returns the across-replication median.
func (a *Agg) Median() float64 { return a.Quantile(0.5) }

// MeanCI bootstraps a confidence interval for the across-replication mean.
// Deterministic for a fixed seed.
func (a *Agg) MeanCI(resamples int, level float64, seed uint64) CI {
	return BootstrapCI(a.defined(), Mean, resamples, level, seed)
}

// StdErr returns the standard error of the across-replication mean using the
// sample (n−1) variance, the usual headline uncertainty for a replicated
// simulation experiment. NaN with fewer than two defined values.
func (a *Agg) StdErr() float64 {
	n := a.moments.N()
	if n < 2 {
		return math.NaN()
	}
	sampleVar := a.moments.Variance() * float64(n) / float64(n-1)
	return math.Sqrt(sampleVar / float64(n))
}
