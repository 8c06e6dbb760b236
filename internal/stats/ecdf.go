package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a fixed sample,
// the workhorse presentation device of the paper (Figs. 3, 4, 6, 7, 9, 10,
// 11, 14 are all empirical CDFs). It supports evaluation at arbitrary points,
// inverse evaluation (quantiles), and export as plotted (x, F(x)) series.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF over xs. The input is copied and sorted; NaNs are
// dropped because they carry no ordering information.
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// NewECDFSorted adopts data that is already sorted ascending and NaN-free
// without copying, the zero-allocation path for shared sorted column views.
// The caller must not mutate the slice afterwards; the ECDF never does.
func NewECDFSorted(sorted []float64) *ECDF {
	return &ECDF{sorted: sorted}
}

// N returns the number of observations.
func (e *ECDF) N() int { return len(e.sorted) }

// Quantile returns the p-quantile with linear interpolation, consistent with
// stats.Quantile.
func (e *ECDF) Quantile(p float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return quantileSorted(e.sorted, p)
}

// Min returns the smallest observation, or NaN when empty.
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[0]
}

// Max returns the largest observation, or NaN when empty.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[len(e.sorted)-1]
}

// Point is one (X, F) vertex of a plotted CDF curve.
type Point struct {
	X float64 // observation value
	F float64 // cumulative probability P(X <= x)
}

// Points returns up to maxPoints evenly spaced (by rank) vertices of the
// step function, suitable for rendering. maxPoints <= 0 returns every
// distinct observation.
func (e *ECDF) Points(maxPoints int) []Point {
	n := len(e.sorted)
	if n == 0 {
		return nil
	}
	stride := 1
	if maxPoints > 0 && n > maxPoints {
		stride = (n + maxPoints - 1) / maxPoints
	}
	var pts []Point
	for i := 0; i < n; i += stride {
		pts = append(pts, Point{X: e.sorted[i], F: float64(i+1) / float64(n)})
	}
	if last := e.sorted[n-1]; len(pts) == 0 || pts[len(pts)-1].X != last {
		pts = append(pts, Point{X: last, F: 1})
	}
	return pts
}
