package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", m)
	}
	if v := Variance(xs); !almost(v, 4, 1e-12) {
		t.Fatalf("variance = %v, want 4", v)
	}
	if s := StdDev(xs); !almost(s, 2, 1e-12) {
		t.Fatalf("stddev = %v, want 2", s)
	}
}

func TestEmptyInputsReturnNaN(t *testing.T) {
	var empty []float64
	for name, v := range map[string]float64{
		"Mean":     Mean(empty),
		"Variance": Variance(empty),
		"CoV":      CoV(empty),
		"Min":      Min(empty),
		"Max":      Max(empty),
		"Quantile": Quantile(empty, 0.5),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s(empty) = %v, want NaN", name, v)
		}
	}
}

func TestCoV(t *testing.T) {
	// stddev 2, mean 5 -> 40%.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if c := CoV(xs); !almost(c, 40, 1e-9) {
		t.Fatalf("CoV = %v, want 40", c)
	}
	if c := CoV([]float64{7}); c != 0 {
		t.Fatalf("CoV of singleton = %v, want 0", c)
	}
	if c := CoV([]float64{-1, 1}); !math.IsNaN(c) {
		t.Fatalf("CoV with zero mean = %v, want NaN", c)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	// NumPy linear: q(0.5) of [1,2,3,4] = 2.5.
	if q := Quantile(xs, 0.5); !almost(q, 2.5, 1e-12) {
		t.Fatalf("median = %v, want 2.5", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v, want 1", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 = %v, want 4", q)
	}
	if q := Quantile(xs, 0.25); !almost(q, 1.75, 1e-12) {
		t.Fatalf("q25 = %v, want 1.75", q)
	}
}

func TestQuantilesBatch(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	qs := Quantiles(xs, 0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Fatalf("Quantiles = %v", qs)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("bad N/min/max: %+v", s)
	}
	if !almost(s.Mean, 5, 1e-12) || !almost(s.StdDev, 2, 1e-12) || !almost(s.CoVPct, 40, 1e-9) {
		t.Fatalf("bad moments: %+v", s)
	}
	if !almost(s.P50, 4.5, 1e-12) {
		t.Fatalf("P50 = %v, want 4.5", s.P50)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Fatalf("empty summary: %+v", empty)
	}
}

func TestBoxStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := Box(xs)
	if b.N != 10 {
		t.Fatalf("N = %d", b.N)
	}
	if !almost(b.Median, 5.5, 1e-12) {
		t.Fatalf("median = %v", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerHigh != 9 {
		t.Fatalf("whisker high = %v, want 9", b.WhiskerHigh)
	}
	if b.WhiskerLow != 1 {
		t.Fatalf("whisker low = %v, want 1", b.WhiskerLow)
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if f := FractionAbove(xs, 30); !almost(f, 0.4, 1e-12) {
		t.Fatalf("FractionAbove = %v, want 0.4", f)
	}
	if f := FractionBelow(xs, 30); !almost(f, 0.4, 1e-12) {
		t.Fatalf("FractionBelow = %v, want 0.4", f)
	}
}

// Property: quantile is monotone in p and bounded by min/max.
func TestQuantileProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Abs(math.Mod(p1, 1))
		b := math.Abs(math.Mod(p2, 1))
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		return qa <= qb+1e-9 && qa >= Min(xs)-1e-9 && qb <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize agrees with the direct estimators.
func TestSummarizeConsistencyProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		tol := 1e-6 * (1 + math.Abs(s.Mean))
		return almost(s.Mean, Mean(xs), tol) &&
			almost(s.StdDev, StdDev(xs), tol) &&
			s.Min == Min(xs) && s.Max == Max(xs) &&
			almost(s.P50, Median(xs), tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Summary bundles the descriptive statistics reported for each metric in the
// trace dataset (the paper collects min/mean/max per job, and the analyses
// add quartiles and CoV).
type Summary struct {
	N             int
	Min, Max      float64
	Mean          float64
	StdDev        float64
	P25, P50, P75 float64
	CoVPct        float64 // coefficient of variation, percent
	Sum           float64
}

// Summarize computes a Summary of xs. An empty input yields a Summary with
// N=0 and NaN statistics.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		s.Min, s.Max, s.Mean, s.StdDev = nan, nan, nan, nan
		s.P25, s.P50, s.P75, s.CoVPct, s.Sum = nan, nan, nan, nan, 0
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Sum = Sum(xs)
	s.Mean = s.Sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	s.P25 = quantileSorted(sorted, 0.25)
	s.P50 = quantileSorted(sorted, 0.50)
	s.P75 = quantileSorted(sorted, 0.75)
	if s.Mean != 0 && len(xs) > 1 {
		s.CoVPct = s.StdDev / math.Abs(s.Mean) * 100
	} else if len(xs) == 1 {
		s.CoVPct = 0
	} else {
		s.CoVPct = math.NaN()
	}
	return s
}

// Variance returns the population variance of xs, or NaN if xs is empty.
func Variance(xs []float64) float64 {
	_, v := MeanVariance(xs)
	return v
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	_, v := MeanVariance(xs)
	return math.Sqrt(v)
}

// Min returns the minimum of xs, or NaN if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Box computes box-plot statistics of xs by sorting a copy: the reference
// TestBoxStats pins.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStatsSorted(nil)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return BoxStatsSorted(s)
}

// BoxStatsSorted computes box-plot statistics of data that is already sorted
// ascending and NaN-free, without copying: the single-slice reference
// RunsView.Box must match bit for bit. The returned Outliers slice (if
// any) is freshly allocated; the input is never retained.
func BoxStatsSorted(s []float64) BoxStats {
	b := BoxStats{N: len(s)}
	if len(s) == 0 {
		nan := math.NaN()
		b.Median, b.Q1, b.Q3, b.WhiskerLow, b.WhiskerHigh = nan, nan, nan, nan, nan
		return b
	}
	b.Q1 = quantileSorted(s, 0.25)
	b.Median = quantileSorted(s, 0.50)
	b.Q3 = quantileSorted(s, 0.75)
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLow, b.WhiskerHigh = math.NaN(), math.NaN()
	for _, v := range s {
		if v >= loFence {
			b.WhiskerLow = v
			break
		}
	}
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] <= hiFence {
			b.WhiskerHigh = s[i]
			break
		}
	}
	for _, v := range s {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
		}
	}
	return b
}
