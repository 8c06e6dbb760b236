package stats

import (
	"math"
	"sort"
)

// RunsView answers order-statistic queries over the multiset union of a
// small number of ascending, NaN-free runs WITHOUT materializing the merged
// slice. This is the live-query engine of the segmented store: a snapshot
// column holds two cached runs (the merged sealed prefix and the sorted
// tail), and a dashboard query needs a handful of quantiles and threshold
// fractions from their union. Merging first costs O(n) time and memory per
// query; selecting across the runs costs O(log n) per statistic.
//
// Every method returns a value bit-identical to computing the same
// statistic over the fully merged slice (QuantileSorted, ECDF.Points, and
// the single-slice references in the package tests): a selection at rank
// k yields the k-th smallest VALUE of the union, which is tie-insensitive,
// and the interpolation arithmetic is copied verbatim from the single-slice
// implementations.
type RunsView struct {
	a, b []float64 // ascending NaN-free runs; b may be empty
	n    int
}

// NewRunsView builds a view over ascending NaN-free runs. Empty runs are
// dropped; more than two non-empty runs are folded down by merging, so the
// selection fast path always sees at most two.
func NewRunsView(runs ...[]float64) *RunsView {
	live := make([][]float64, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	v := &RunsView{}
	switch len(live) {
	case 0:
	case 1:
		v.a = live[0]
	case 2:
		v.a, v.b = live[0], live[1]
	default:
		// Rare fallback: merge everything past the first run into one
		// second run. Callers in the hot path always pass one or two.
		v.a, v.b = live[0], MergeRuns(live[1:])
	}
	v.n = len(v.a) + len(v.b)
	return v
}

// N returns the number of observations in the union.
func (v *RunsView) N() int { return v.n }

// Min returns the smallest observation, or NaN when empty.
func (v *RunsView) Min() float64 {
	switch {
	case v.n == 0:
		return math.NaN()
	case len(v.b) == 0:
		return v.a[0]
	case len(v.a) == 0:
		return v.b[0]
	}
	return math.Min(v.a[0], v.b[0])
}

// Max returns the largest observation, or NaN when empty.
func (v *RunsView) Max() float64 {
	switch {
	case v.n == 0:
		return math.NaN()
	case len(v.b) == 0:
		return v.a[len(v.a)-1]
	case len(v.a) == 0:
		return v.b[len(v.b)-1]
	}
	return math.Max(v.a[len(v.a)-1], v.b[len(v.b)-1])
}

// AtRank returns the k-th smallest observation (0-based) of the union — the
// value merged[k] would hold. It panics if k is out of range, matching a
// slice index.
func (v *RunsView) AtRank(k int) float64 {
	if k < 0 || k >= v.n {
		panic("stats: RunsView rank out of range")
	}
	if len(v.b) == 0 {
		return v.a[k]
	}
	if len(v.a) == 0 {
		return v.b[k]
	}
	return kthOfTwo(v.a, v.b, k)
}

// kthOfTwo selects the k-th smallest (0-based) of the union of two ascending
// runs by binary-searching the partition point: i elements from a and
// j = k+1-i from b form the k+1 smallest iff neither prefix's last element
// exceeds the other suffix's first. Ties make several partitions valid, but
// all yield the same value. O(log(len(a))).
func kthOfTwo(a, b []float64, k int) float64 {
	lo, hi := k+1-len(b), k+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	for {
		i := int(uint(lo+hi) >> 1)
		j := k + 1 - i
		switch {
		case i > 0 && j < len(b) && a[i-1] > b[j]:
			hi = i - 1 // a contributes too many
		case j > 0 && i < len(a) && b[j-1] > a[i]:
			lo = i + 1 // a contributes too few
		case i == 0:
			return b[j-1]
		case j == 0:
			return a[i-1]
		default:
			return math.Max(a[i-1], b[j-1])
		}
	}
}

// Quantile returns the linear-interpolated p-quantile, bit-identical to
// QuantileSorted over the merged slice (the arithmetic mirrors
// quantileSorted exactly).
func (v *RunsView) Quantile(p float64) float64 {
	if v.n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return v.AtRank(0)
	}
	if p >= 1 {
		return v.AtRank(v.n - 1)
	}
	pos := p * float64(v.n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return v.AtRank(lo)
	}
	frac := pos - float64(lo)
	return v.AtRank(lo)*(1-frac) + v.AtRank(hi)*frac
}

// FractionBelow returns the fraction of observations strictly below
// threshold, bit-identical to counting them in the merged slice.
func (v *RunsView) FractionBelow(threshold float64) float64 {
	if v.n == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(v.a, threshold) + sort.SearchFloat64s(v.b, threshold)
	return float64(i) / float64(v.n)
}

// FractionAbove returns the fraction of observations strictly above
// threshold, bit-identical to FractionAboveSorted over the merged slice.
func (v *RunsView) FractionAbove(threshold float64) float64 {
	if v.n == 0 {
		return math.NaN()
	}
	i := sort.Search(len(v.a), func(i int) bool { return v.a[i] > threshold }) +
		sort.Search(len(v.b), func(i int) bool { return v.b[i] > threshold })
	return float64(v.n-i) / float64(v.n)
}

// Points returns up to maxPoints evenly spaced (by rank) CDF vertices,
// bit-identical to ECDF.Points over the merged slice.
func (v *RunsView) Points(maxPoints int) []Point {
	if v.n == 0 {
		return nil
	}
	stride := 1
	if maxPoints > 0 && v.n > maxPoints {
		stride = (v.n + maxPoints - 1) / maxPoints
	}
	var pts []Point
	for i := 0; i < v.n; i += stride {
		pts = append(pts, Point{X: v.AtRank(i), F: float64(i+1) / float64(v.n)})
	}
	if last := v.AtRank(v.n - 1); len(pts) == 0 || pts[len(pts)-1].X != last {
		pts = append(pts, Point{X: last, F: 1})
	}
	return pts
}

// Box returns the Tukey box-plot statistics (1.5×IQR whiskers) of the
// union, bit-identical to computing them over the merged slice, Outliers
// included: quartiles by selection, whiskers and outlier bounds by binary
// search on each run, and only the outliers themselves merged out.
func (v *RunsView) Box() BoxStats {
	b := BoxStats{N: v.n}
	if v.n == 0 {
		nan := math.NaN()
		b.Median, b.Q1, b.Q3, b.WhiskerLow, b.WhiskerHigh = nan, nan, nan, nan, nan
		return b
	}
	b.Q1 = v.Quantile(0.25)
	b.Median = v.Quantile(0.50)
	b.Q3 = v.Quantile(0.75)
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	// [0, lo) are the ranks below loFence and [hi, n) those above hiFence.
	la, lb := sort.SearchFloat64s(v.a, loFence), sort.SearchFloat64s(v.b, loFence)
	ha := sort.Search(len(v.a), func(i int) bool { return v.a[i] > hiFence })
	hb := sort.Search(len(v.b), func(i int) bool { return v.b[i] > hiFence })
	lo, hi := la+lb, ha+hb
	b.WhiskerLow, b.WhiskerHigh = math.NaN(), math.NaN()
	if lo < v.n {
		b.WhiskerLow = v.AtRank(lo)
	}
	if hi > 0 {
		b.WhiskerHigh = v.AtRank(hi - 1)
	}
	b.Outliers = MergeSorted(b.Outliers, v.a[:la], v.b[:lb])
	b.Outliers = MergeSorted(b.Outliers, v.a[ha:], v.b[hb:])
	return b
}

// MergeRuns merges ascending runs into one ascending slice by rounds of
// pairwise MergeSorted calls in run order — O(n log k) with sequential
// memory traffic, and the output is the same ascending multiset a full sort
// would produce. A single non-empty run is returned as is, not copied;
// runs is not modified.
func MergeRuns(runs [][]float64) []float64 {
	live := make([][]float64, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return []float64{}
	case 1:
		return live[0]
	}
	for len(live) > 1 {
		next := live[:0]
		for i := 0; i+1 < len(live); i += 2 {
			next = append(next, MergeSorted(make([]float64, 0, len(live[i])+len(live[i+1])), live[i], live[i+1]))
		}
		if len(live)%2 == 1 {
			next = append(next, live[len(live)-1])
		}
		live = next
	}
	return live[0]
}

// MergeSorted appends the ascending merge of the ascending runs a and b to
// dst and returns the extended slice.
func MergeSorted(dst, a, b []float64) []float64 {
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		if a[i] <= b[k] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[k])
			k++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[k:]...)
}

// UniformityDistance returns the Kolmogorov–Smirnov statistic between the
// union and the continuous uniform distribution on [lo, hi], bit-identical
// to computing it over the merged slice: it walks the two runs in merged
// order without materializing the merge. A value near zero certifies the
// "linearly increasing empirical CDF" the paper observes for PCIe
// bandwidths in Fig. 4b.
func (v *RunsView) UniformityDistance(lo, hi float64) float64 {
	if v.n == 0 || hi <= lo {
		return math.NaN()
	}
	var d float64
	i, k := 0, 0
	for r := 0; r < v.n; r++ {
		var x float64
		if k >= len(v.b) || (i < len(v.a) && v.a[i] <= v.b[k]) {
			x = v.a[i]
			i++
		} else {
			x = v.b[k]
			k++
		}
		u := (x - lo) / (hi - lo)
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		// Compare against both step edges, per the one-sample KS definition.
		fHi := float64(r+1) / float64(v.n)
		fLo := float64(r) / float64(v.n)
		if diff := math.Abs(fHi - u); diff > d {
			d = diff
		}
		if diff := math.Abs(fLo - u); diff > d {
			d = diff
		}
	}
	return d
}
