// Package stats reimplements, on the standard library alone, the estimators
// the paper's analysis pipeline takes from SciPy/Pandas: empirical CDFs,
// quantiles, coefficients of variation, Spearman rank correlation with
// p-values, box-plot statistics, histograms, Lorenz/Gini concentration, and
// streaming moments for datasets too large to hold resident.
//
// Conventions: quantiles use linear interpolation between closest ranks
// (NumPy's default "linear" method) so that numbers are directly comparable
// to the paper's SciPy-derived values. Functions that cannot produce a
// defined result on their input (empty slices, zero means) return NaN rather
// than panicking, because missing strata are routine in trace analysis.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanVariance returns the mean and population variance of xs (divide by n)
// in one fused Welford pass, so CoV-style consumers never scan the data
// twice. Population variance matches how the paper computes CoV over the
// complete set of intervals of a run, which is a census, not a sample. Both
// results are NaN for empty input.
func MeanVariance(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	var m, m2 float64
	for i, x := range xs {
		delta := x - m
		m += delta / float64(i+1)
		m2 += delta * (x - m)
	}
	return m, m2 / float64(len(xs))
}

// CoV returns the coefficient of variation of xs expressed as a percentage
// (stddev/mean × 100), the unit used throughout the paper's Figs. 6b, 7a, 11
// and 14. It returns NaN for empty input or zero mean, and 0 for a single
// observation (no dispersion is observable).
func CoV(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if len(xs) == 1 {
		return 0
	}
	m, v := MeanVariance(xs)
	if m == 0 {
		return math.NaN()
	}
	return math.Sqrt(v) / math.Abs(m) * 100
}

// Quantile returns the p-quantile of xs (p in [0,1]) using linear
// interpolation between closest ranks. It sorts a copy; use Quantiles or an
// ECDF when many quantiles of the same data are needed.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

// Quantiles returns the quantiles of xs at each probability in ps, sorting
// the data only once.
func Quantiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		out[i] = quantileSorted(s, p)
	}
	return out
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// QuantileSorted returns the p-quantile of data that is already sorted
// ascending and NaN-free — the fast path for shared sorted column views,
// which would otherwise be re-copied and re-sorted per quantile. It is
// value-identical to Quantile on the same multiset.
func QuantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return quantileSorted(sorted, p)
}

// quantileSorted computes the linear-interpolated quantile of sorted data.
func quantileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// BoxStats holds the five-number summary backing a box plot (paper Fig. 16),
// with Tukey 1.5×IQR whiskers.
type BoxStats struct {
	N                       int
	Median, Q1, Q3          float64
	WhiskerLow, WhiskerHigh float64
	Outliers                []float64
}

// FractionAbove returns the fraction of xs strictly greater than threshold,
// used for statements like "only 20 % of the jobs have more than 50 % SM
// utilization" (paper §III).
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionBelow returns the fraction of xs strictly less than threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionAboveSorted is FractionAbove on data already sorted ascending and
// NaN-free: a binary search replaces the linear count. The count (and hence
// the exact division) matches the scan on the same multiset.
func FractionAboveSorted(sorted []float64, threshold float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > threshold })
	return float64(len(sorted)-i) / float64(len(sorted))
}
