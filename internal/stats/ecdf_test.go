package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, math.NaN(), 4})
	if e.N() != 4 {
		t.Fatalf("N = %d, want 4 (NaN dropped)", e.N())
	}
	if f := e.At(0); f != 0 {
		t.Fatalf("At(0) = %v, want 0", f)
	}
	if f := e.At(2); f != 0.5 {
		t.Fatalf("At(2) = %v, want 0.5", f)
	}
	if f := e.At(4); f != 1 {
		t.Fatalf("At(4) = %v, want 1", f)
	}
	if f := e.At(2.5); f != 0.5 {
		t.Fatalf("At(2.5) = %v, want 0.5", f)
	}
	if e.Min() != 1 || e.Max() != 4 {
		t.Fatalf("min/max = %v/%v", e.Min(), e.Max())
	}
	if m := e.Median(); !almost(m, 2.5, 1e-12) {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if !math.IsNaN(e.At(1)) || !math.IsNaN(e.Quantile(0.5)) {
		t.Fatal("empty ECDF should return NaN")
	}
	if pts := e.Points(10); pts != nil {
		t.Fatalf("empty ECDF points = %v", pts)
	}
}

func TestECDFPoints(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	e := NewECDF(xs)
	pts := e.Points(50)
	if len(pts) > 55 {
		t.Fatalf("Points(50) returned %d points", len(pts))
	}
	// Monotone in both coordinates and ends at F=1.
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F < pts[i-1].F {
			t.Fatalf("points not monotone at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
	if last := pts[len(pts)-1]; last.F != 1 {
		t.Fatalf("last point F = %v, want 1", last.F)
	}
}

func TestUniformityDistance(t *testing.T) {
	// Perfectly spread points have small KS distance to uniform.
	n := 1000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = (float64(i) + 0.5) / float64(n)
	}
	e := NewECDF(xs)
	if d := e.UniformityDistance(0, 1); d > 0.01 {
		t.Fatalf("uniform grid KS distance = %v, want ~0", d)
	}
	// All-mass-at-a-point is maximally non-uniform.
	point := NewECDF([]float64{0.5, 0.5, 0.5, 0.5})
	if d := point.UniformityDistance(0, 1); d < 0.45 {
		t.Fatalf("degenerate KS distance = %v, want ~0.5", d)
	}
}

func TestKolmogorovDistance(t *testing.T) {
	a := NewECDF([]float64{1, 2, 3, 4, 5})
	b := NewECDF([]float64{1, 2, 3, 4, 5})
	if d := a.KolmogorovDistance(b); d != 0 {
		t.Fatalf("identical ECDFs KS = %v", d)
	}
	c := NewECDF([]float64{11, 12, 13})
	if d := a.KolmogorovDistance(c); d != 1 {
		t.Fatalf("disjoint ECDFs KS = %v, want 1", d)
	}
}

// Property: At is a valid CDF — monotone, in [0,1], 0 below min, 1 at max.
func TestECDFProperty(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		fv := e.At(probe)
		if math.IsNaN(probe) {
			return true
		}
		if fv < 0 || fv > 1 {
			return false
		}
		if probe < e.Min() && fv != 0 {
			return false
		}
		if probe >= e.Max() && fv != 1 {
			return false
		}
		return e.At(probe) <= e.At(probe+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// KolmogorovDistance returns the Kolmogorov–Smirnov statistic between this
// ECDF and other: sup_x |F1(x) - F2(x)|, the two-sample form of
// UniformityDistance.
func (e *ECDF) KolmogorovDistance(other *ECDF) float64 {
	if e.N() == 0 || other.N() == 0 {
		return math.NaN()
	}
	var d float64
	for _, x := range e.sorted {
		if diff := math.Abs(e.At(x) - other.At(x)); diff > d {
			d = diff
		}
	}
	for _, x := range other.sorted {
		if diff := math.Abs(e.At(x) - other.At(x)); diff > d {
			d = diff
		}
	}
	return d
}

// At returns F(x) = P(X <= x), the fraction of observations at or below x.
// It returns NaN for an empty ECDF.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// Index of the first element strictly greater than x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// UniformityDistance returns the KS statistic between this ECDF and the
// continuous uniform distribution on [lo, hi]: the single-slice reference
// RunsView.UniformityDistance must match bit for bit. A value near zero certifies
// the "linearly increasing empirical CDF" the paper observes for PCIe
// bandwidths in Fig. 4b.
func (e *ECDF) UniformityDistance(lo, hi float64) float64 {
	if e.N() == 0 || hi <= lo {
		return math.NaN()
	}
	var d float64
	for i, x := range e.sorted {
		u := (x - lo) / (hi - lo)
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		// Compare against both step edges, per the one-sample KS definition.
		fHi := float64(i+1) / float64(len(e.sorted))
		fLo := float64(i) / float64(len(e.sorted))
		if diff := math.Abs(fHi - u); diff > d {
			d = diff
		}
		if diff := math.Abs(fLo - u); diff > d {
			d = diff
		}
	}
	return d
}
