package dist

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func sampleMany(s Sampler, n int, seed uint64) []float64 {
	r := New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Sample(r)
	}
	return out
}

func empiricalQuantile(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

func TestUniformQuantileAndSample(t *testing.T) {
	u := Uniform{Low: 2, High: 10}
	if got := u.Quantile(0.5); math.Abs(got-6) > 1e-12 {
		t.Fatalf("uniform median = %v, want 6", got)
	}
	vals := sampleMany(u, 50000, 1)
	for _, v := range vals {
		if v < 2 || v > 10 {
			t.Fatalf("uniform sample %v out of [2,10]", v)
		}
	}
	if med := empiricalQuantile(vals, 0.5); math.Abs(med-6) > 0.1 {
		t.Fatalf("uniform empirical median %v", med)
	}
}

func TestLognormalCalibration(t *testing.T) {
	// Calibrate to the paper's GPU run times: median 30 min, p75 300 min.
	l := LognormalFromMedianQuartile(30, 300)
	if med := math.Exp(l.Mu); math.Abs(med-30) > 1e-9 {
		t.Fatalf("median = %v, want 30", med)
	}
	if q := l.Quantile(0.75); math.Abs(q-300) > 1e-6 {
		t.Fatalf("q75 = %v, want 300", q)
	}
	vals := sampleMany(l, 200000, 2)
	if med := empiricalQuantile(vals, 0.5); math.Abs(med-30)/30 > 0.05 {
		t.Fatalf("empirical median %v, want ~30", med)
	}
	if q75 := empiricalQuantile(vals, 0.75); math.Abs(q75-300)/300 > 0.08 {
		t.Fatalf("empirical q75 %v, want ~300", q75)
	}
}

func TestLognormalCalibrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for q75 <= median")
		}
	}()
	LognormalFromMedianQuartile(30, 30)
}

func TestExponentialQuantile(t *testing.T) {
	e := Exponential{Mean: 5}
	// Median of exponential is mean*ln(2).
	want := 5 * math.Ln2
	if got := e.Quantile(0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("exp median = %v, want %v", got, want)
	}
	vals := sampleMany(e, 100000, 3)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if mean := sum / float64(len(vals)); math.Abs(mean-5)/5 > 0.03 {
		t.Fatalf("exp empirical mean %v, want ~5", mean)
	}
}

func TestBoundedParetoRange(t *testing.T) {
	b := BoundedPareto{Low: 1, High: 1000, Alpha: 1.1}
	vals := sampleMany(b, 50000, 4)
	for _, v := range vals {
		if v < 1 || v > 1000 {
			t.Fatalf("bounded pareto sample %v out of range", v)
		}
	}
	// Heavy tail: the top decile should hold a disproportionate mass share.
	sort.Float64s(vals)
	var total, top float64
	for i, v := range vals {
		total += v
		if i >= len(vals)*9/10 {
			top += v
		}
	}
	if share := top / total; share < 0.4 {
		t.Fatalf("top-decile mass share %.3f; expected heavy tail > 0.4", share)
	}
}

func TestBoundedParetoQuantileMonotone(t *testing.T) {
	b := BoundedPareto{Low: 2, High: 500, Alpha: 1.5}
	prev := -math.MaxFloat64
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := b.Quantile(p)
		if q < prev-1e-9 {
			t.Fatalf("quantile not monotone at p=%v: %v < %v", p, q, prev)
		}
		prev = q
	}
	if q0 := b.Quantile(0); math.Abs(q0-2) > 1e-6 {
		t.Fatalf("Quantile(0) = %v, want Low=2", q0)
	}
	if q1 := b.Quantile(1); math.Abs(q1-500) > 1e-6 {
		t.Fatalf("Quantile(1) = %v, want High=500", q1)
	}
}

func TestTriangular(t *testing.T) {
	tr := Triangular{Low: 0, Mode: 20, High: 100}
	vals := sampleMany(tr, 50000, 5)
	for _, v := range vals {
		if v < 0 || v > 100 {
			t.Fatalf("triangular sample %v out of range", v)
		}
	}
	// Mean of triangular = (a+b+c)/3 = 40.
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if mean := sum / float64(len(vals)); math.Abs(mean-40) > 1 {
		t.Fatalf("triangular mean %v, want ~40", mean)
	}
}

func TestBetaShapes(t *testing.T) {
	// Beta(0.5, 3) piles near zero; Beta(5, 2) has a body near 0.7.
	low := sampleMany(Beta{A: 0.5, B: 3}, 50000, 6)
	hi := sampleMany(Beta{A: 5, B: 2}, 50000, 7)
	for _, v := range append(append([]float64{}, low...), hi...) {
		if v < 0 || v > 1 {
			t.Fatalf("beta sample %v out of [0,1]", v)
		}
	}
	if med := empiricalQuantile(low, 0.5); med > 0.2 {
		t.Fatalf("Beta(0.5,3) median %v; expected near-zero pile", med)
	}
	if med := empiricalQuantile(hi, 0.5); med < 0.6 || med > 0.8 {
		t.Fatalf("Beta(5,2) median %v; expected ~0.71", med)
	}
}

func TestTruncated(t *testing.T) {
	base := Lognormal{Mu: 0, Sigma: 3}
	tr := Truncated{Base: base, Low: 0.5, High: 4}
	vals := sampleMany(tr, 20000, 8)
	for _, v := range vals {
		if v < 0.5 || v > 4 {
			t.Fatalf("truncated sample %v out of [0.5,4]", v)
		}
	}
}

func TestMixtureWeights(t *testing.T) {
	m := NewMixture(
		Component{Weight: 0.3, Dist: Constant{Value: 0}},
		Component{Weight: 0.7, Dist: Constant{Value: 1}},
	)
	vals := sampleMany(m, 100000, 9)
	ones := 0
	for _, v := range vals {
		if v == 1 {
			ones++
		}
	}
	if frac := float64(ones) / float64(len(vals)); math.Abs(frac-0.7) > 0.01 {
		t.Fatalf("mixture drew component 1 at rate %.4f, want 0.7", frac)
	}
}

func TestMixturePanicsOnEmptyWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-weight mixture")
		}
	}()
	NewMixture(Component{Weight: 0, Dist: Constant{}})
}

func TestCategorical(t *testing.T) {
	c := NewCategorical(1, 30, 4, 65)
	if len(c.weights) != 4 {
		t.Fatalf("Len = %d", len(c.weights))
	}
	if p := c.weights[3] / c.total; math.Abs(p-0.65) > 1e-12 {
		t.Fatalf("Prob(3) = %v, want 0.65", p)
	}
	r := New(10)
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[c.Draw(r)]++
	}
	wants := []float64{0.01, 0.30, 0.04, 0.65}
	for i, w := range wants {
		if got := float64(counts[i]) / n; math.Abs(got-w) > 0.01 {
			t.Fatalf("category %d rate %.4f, want %.2f", i, got, w)
		}
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{Base: Constant{Value: 2}, Factor: 3, Offset: 1}
	if got := s.Sample(New(1)); got != 7 {
		t.Fatalf("scaled sample = %v, want 7", got)
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.25, 0.5, 0.75, 0.975, 0.99, 0.999} {
		x := NormQuantile(p)
		back := NormCDF(x)
		if math.Abs(back-p) > 1e-6 {
			t.Fatalf("NormCDF(NormQuantile(%v)) = %v", p, back)
		}
	}
	if q := NormQuantile(0.5); math.Abs(q) > 1e-9 {
		t.Fatalf("NormQuantile(0.5) = %v, want 0", q)
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Fatal("NormQuantile boundary values not infinite")
	}
}

// Property: every QuantileSampler's Quantile is monotone non-decreasing.
func TestQuantileMonotoneProperty(t *testing.T) {
	samplers := []QuantileSampler{
		Uniform{Low: -3, High: 9},
		Lognormal{Mu: 1, Sigma: 2},
		Exponential{Mean: 4},
		BoundedPareto{Low: 1, High: 100, Alpha: 1.2},
		Triangular{Low: 0, Mode: 5, High: 10},
	}
	f := func(a, b float64) bool {
		pa, pb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		for _, s := range samplers {
			if s.Quantile(pa) > s.Quantile(pb)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: samples from bounded distributions stay in bounds for any seed.
func TestBoundedSamplesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		u := Uniform{Low: 1, High: 2}
		b := BoundedPareto{Low: 3, High: 30, Alpha: 2}
		tri := Triangular{Low: -1, Mode: 0, High: 1}
		for i := 0; i < 50; i++ {
			if v := u.Sample(r); v < 1 || v > 2 {
				return false
			}
			if v := b.Sample(r); v < 3 || v > 30 {
				return false
			}
			if v := tri.Sample(r); v < -1 || v > 1 {
				return false
			}
			if v := (Beta{A: 2, B: 2}).Sample(r); v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The distributions and inverse CDFs below back only the tests: the
// generator draws from Uniform, Lognormal, Exponential, Triangular, Beta,
// Mixture and Categorical.

// QuantileSampler is a Sampler that also exposes its inverse CDF, which the
// quantile tests check against sampling.
type QuantileSampler interface {
	Sampler
	// Quantile returns the value at probability p in [0, 1].
	Quantile(p float64) float64
}

// Quantile returns Low + p*(High-Low).
func (u Uniform) Quantile(p float64) float64 { return u.Low + (u.High-u.Low)*clamp01(p) }

// Quantile returns the inverse CDF at p.
func (l Lognormal) Quantile(p float64) float64 {
	return math.Exp(l.Mu + l.Sigma*NormQuantile(clamp01(p)))
}

// Quantile returns -Mean * ln(1-p).
func (e Exponential) Quantile(p float64) float64 { return -e.Mean * math.Log(1-clamp01p(p)) }

// BoundedPareto is a Pareto distribution truncated to [Low, High] with shape
// Alpha. It models per-user job counts: the paper reports that the top 5 % of
// users submit 44 % of all jobs and the top 20 % submit 83.2 % — a classic
// heavy-tailed concentration that a bounded Pareto reproduces while keeping
// the maximum finite.
type BoundedPareto struct {
	Low, High float64
	Alpha     float64
}

// Sample draws a bounded-Pareto variate by inverse transform.
func (b BoundedPareto) Sample(r *RNG) float64 { return b.Quantile(r.Float64()) }

// Quantile returns the inverse CDF at p.
func (b BoundedPareto) Quantile(p float64) float64 {
	p = clamp01(p)
	la := math.Pow(b.Low, b.Alpha)
	ha := math.Pow(b.High, b.Alpha)
	// CDF(x) = (1 - L^a x^-a) / (1 - (L/H)^a)
	x := math.Pow(-(p*ha-p*la-ha)/(la*ha), -1/b.Alpha)
	if x < b.Low {
		x = b.Low
	}
	if x > b.High {
		x = b.High
	}
	return x
}

// Constant is a degenerate distribution that always returns Value.
type Constant struct {
	Value float64
}

// Sample returns the constant.
func (c Constant) Sample(*RNG) float64 { return c.Value }

// Quantile returns the constant for any p.
func (c Constant) Quantile(float64) float64 { return c.Value }

// Truncated clamps another sampler's output to [Low, High] by resampling up
// to a bounded number of times and clamping afterwards. Resampling keeps the
// interior shape; the final clamp guarantees termination.
type Truncated struct {
	Base      Sampler
	Low, High float64
}

// Sample draws from Base, rejecting out-of-range variates.
func (t Truncated) Sample(r *RNG) float64 {
	const maxTries = 64
	for i := 0; i < maxTries; i++ {
		v := t.Base.Sample(r)
		if v >= t.Low && v <= t.High {
			return v
		}
	}
	v := t.Base.Sample(r)
	if v < t.Low {
		return t.Low
	}
	if v > t.High {
		return t.High
	}
	return v
}

// Scaled multiplies a base sampler's output by Factor and adds Offset.
type Scaled struct {
	Base   Sampler
	Factor float64
	Offset float64
}

// Sample returns Offset + Factor*Base.Sample(r).
func (s Scaled) Sample(r *RNG) float64 { return s.Offset + s.Factor*s.Base.Sample(r) }

// NormQuantile returns the standard normal inverse CDF at p using Peter
// Acklam's rational approximation (relative error < 1.15e-9), sufficient for
// calibration and for Spearman p-values.
func NormQuantile(p float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		t := q * q
		x = (((((a[0]*t+a[1])*t+a[2])*t+a[3])*t+a[4])*t + a[5]) * q /
			(((((b[0]*t+b[1])*t+b[2])*t+b[3])*t+b[4])*t + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	return x
}

// NormCDF returns the standard normal CDF at x.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// clamp01p clamps to [0, 1) so that log(1-p) stays finite.
func clamp01p(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p >= 1 {
		return math.Nextafter(1, 0)
	}
	return p
}
