package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestQuantileAgainstNumPy cross-checks Quantile, QuantileSorted and
// ECDF.Quantile against values computed with NumPy's default "linear"
// interpolation (np.quantile(v, p, method="linear")), including tie-heavy
// vectors and the n=1 / n=2 edges, so the sorted fast paths cannot drift
// from the paper's SciPy conventions.
func TestQuantileAgainstNumPy(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"n1-p0", []float64{42}, 0, 42},
		{"n1-p50", []float64{42}, 0.5, 42},
		{"n1-p100", []float64{42}, 1, 42},
		{"n2-p25", []float64{1, 2}, 0.25, 1.25},
		{"n2-p50", []float64{1, 2}, 0.5, 1.5},
		{"n2-p75", []float64{1, 2}, 0.75, 1.75},
		{"n2-p90", []float64{2, 1}, 0.9, 1.9},
		{"n3-p10", []float64{3, 1, 2}, 0.1, 1.2},
		{"n3-p25", []float64{3, 1, 2}, 0.25, 1.5},
		{"n3-p50", []float64{3, 1, 2}, 0.5, 2},
		{"n3-p75", []float64{3, 1, 2}, 0.75, 2.5},
		{"ties-p25", []float64{1, 2, 2, 2, 3}, 0.25, 2},
		{"ties-p50", []float64{1, 2, 2, 2, 3}, 0.5, 2},
		{"ties-p75", []float64{1, 2, 2, 2, 3}, 0.75, 2},
		{"ties-p90", []float64{1, 2, 2, 2, 3}, 0.9, 2.6},
		{"bimodal-p33", []float64{10, 0, 10, 0}, 1.0 / 3, 0},
		{"bimodal-p50", []float64{10, 0, 10, 0}, 0.5, 5},
		{"bimodal-p90", []float64{10, 0, 10, 0}, 0.9, 10},
		{"ref-p25", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 0.25, 4},
		{"ref-p50", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 0.5, 4.5},
		{"ref-p75", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 0.75, 5.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Quantile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%v, %v) = %v, numpy linear = %v", tc.xs, tc.p, got, tc.want)
			}
			s := append([]float64(nil), tc.xs...)
			sort.Float64s(s)
			if got := QuantileSorted(s, tc.p); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("QuantileSorted(%v, %v) = %v, numpy linear = %v", s, tc.p, got, tc.want)
			}
			if got := NewECDF(tc.xs).Quantile(tc.p); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("ECDF.Quantile(%v, %v) = %v, numpy linear = %v", tc.xs, tc.p, got, tc.want)
			}
		})
	}
	if !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Error("QuantileSorted(nil) should be NaN")
	}
}

// TestMeanVarianceWelford pins the fused single-pass mean/variance on the
// reference vector the textbook two-pass values are known for, and checks
// the CoV edge-case contract (empty → NaN, singleton → 0 even at zero mean,
// zero mean → NaN) survived the fusion.
func TestMeanVarianceWelford(t *testing.T) {
	ref := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, v := MeanVariance(ref)
	if math.Abs(m-5) > 1e-12 || math.Abs(v-4) > 1e-12 {
		t.Errorf("MeanVariance(ref) = (%v, %v), want (5, 4)", m, v)
	}
	if got := StdDev(ref); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev(ref) = %v, want 2", got)
	}
	if got := CoV(ref); math.Abs(got-40) > 1e-9 {
		t.Errorf("CoV(ref) = %v, want 40", got)
	}

	if m, v := MeanVariance(nil); !math.IsNaN(m) || !math.IsNaN(v) {
		t.Errorf("MeanVariance(nil) = (%v, %v), want NaNs", m, v)
	}
	if m, v := MeanVariance([]float64{3}); m != 3 || v != 0 {
		t.Errorf("MeanVariance({3}) = (%v, %v), want (3, 0)", m, v)
	}
	if got := CoV([]float64{0}); got != 0 {
		t.Errorf("CoV({0}) = %v, want 0 (singleton precedes zero-mean check)", got)
	}
	if got := CoV([]float64{-1, 1}); !math.IsNaN(got) {
		t.Errorf("CoV({-1,1}) = %v, want NaN (zero mean)", got)
	}

	// Fused pass must agree with the naive two-pass moments to float
	// precision on arbitrary data.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 1+rng.Intn(200))
		for i := range xs {
			xs[i] = rng.NormFloat64()*50 + 100
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		nm := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			d := x - nm
			ss += d * d
		}
		nv := ss / float64(len(xs))
		m, v := MeanVariance(xs)
		if math.Abs(m-nm) > 1e-9*math.Abs(nm) || math.Abs(v-nv) > 1e-9*math.Max(nv, 1) {
			t.Fatalf("trial %d: welford (%v, %v) vs two-pass (%v, %v)", trial, m, v, nm, nv)
		}
	}
}

// reverseSortedConcentration reproduces the pre-PR3 reverse-sorted
// formulation as an executable spec for the byte-identity claim.
type reverseSortedConcentration struct {
	sortedDesc []float64
	total      float64
}

func newReverseSortedConcentration(contributions []float64) *reverseSortedConcentration {
	c := &reverseSortedConcentration{}
	for _, v := range contributions {
		if v >= 0 && !math.IsNaN(v) {
			c.sortedDesc = append(c.sortedDesc, v)
			c.total += v
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(c.sortedDesc)))
	return c
}

func (c *reverseSortedConcentration) topShare(topFrac float64) float64 {
	if len(c.sortedDesc) == 0 || c.total == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(topFrac * float64(len(c.sortedDesc))))
	if k < 1 {
		k = 1
	}
	if k > len(c.sortedDesc) {
		k = len(c.sortedDesc)
	}
	var s float64
	for _, v := range c.sortedDesc[:k] {
		s += v
	}
	return s / c.total
}

func (c *reverseSortedConcentration) gini() float64 {
	n := len(c.sortedDesc)
	if n == 0 || c.total == 0 {
		return math.NaN()
	}
	var weighted float64
	for i, v := range c.sortedDesc {
		weighted += float64(n-i) * v
	}
	return (2*weighted/c.total - float64(n+1)) / float64(n)
}

func (c *reverseSortedConcentration) lorenz() []Point {
	n := len(c.sortedDesc)
	if n == 0 || c.total == 0 {
		return nil
	}
	pts := make([]Point, n)
	var cum float64
	for i, v := range c.sortedDesc {
		cum += v
		pts[i] = Point{X: float64(i+1) / float64(n), F: cum / c.total}
	}
	return pts
}

// TestConcentrationByteIdentical checks the ascending-sort Concentration
// against the reverse-sorted spec with exact (==) float comparison: same
// accumulation order, same divisions, bit-for-bit the same outputs.
func TestConcentrationByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fracs := []float64{0.01, 0.05, 0.2, 0.5, 1}
	for trial := 0; trial < 100; trial++ {
		xs := make([]float64, rng.Intn(60))
		for i := range xs {
			switch rng.Intn(5) {
			case 0:
				xs[i] = float64(rng.Intn(4)) // force ties, zeros
			case 1:
				xs[i] = -rng.Float64() // dropped as invalid
			default:
				xs[i] = rng.ExpFloat64() * 1000
			}
		}
		got, want := NewConcentration(xs), newReverseSortedConcentration(xs)
		if len(got.sortedAsc) != len(want.sortedDesc) {
			t.Fatalf("trial %d: N %d vs %d", trial, len(got.sortedAsc), len(want.sortedDesc))
		}
		for _, f := range fracs {
			g, w := got.TopShare(f), want.topShare(f)
			if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("trial %d: TopShare(%v) %v != %v", trial, f, g, w)
			}
		}
		g, w := got.Gini(), want.gini()
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("trial %d: Gini %v != %v", trial, g, w)
		}
		gl, wl := got.LorenzCurve(), want.lorenz()
		if len(gl) != len(wl) {
			t.Fatalf("trial %d: Lorenz len %d vs %d", trial, len(gl), len(wl))
		}
		for i := range gl {
			if gl[i] != wl[i] {
				t.Fatalf("trial %d: Lorenz[%d] %v != %v", trial, i, gl[i], wl[i])
			}
		}
	}
}

// TestSortedFastPathEquivalence checks every sorted-input fast path against
// its copying counterpart on random data: identical values (exact for the
// counting paths, which share the same division).
func TestSortedFastPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		xs := make([]float64, 1+rng.Intn(150))
		for i := range xs {
			xs[i] = math.Round(rng.NormFloat64()*25+50) / 2 // plenty of ties
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)

		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			if got, want := QuantileSorted(s, p), Quantile(xs, p); got != want {
				t.Fatalf("trial %d: QuantileSorted(%v) %v != Quantile %v", trial, p, got, want)
			}
		}
		for _, th := range []float64{0, 25, 50, 50.5, 100} {
			if got, want := FractionAboveSorted(s, th), FractionAbove(xs, th); got != want {
				t.Fatalf("trial %d: FractionAboveSorted(%v) %v != %v", trial, th, got, want)
			}
			if got, want := FractionBelowSorted(s, th), FractionBelow(xs, th); got != want {
				t.Fatalf("trial %d: FractionBelowSorted(%v) %v != %v", trial, th, got, want)
			}
		}

		gb, wb := BoxStatsSorted(s), Box(xs)
		if gb.N != wb.N || gb.Median != wb.Median || gb.Q1 != wb.Q1 || gb.Q3 != wb.Q3 ||
			gb.WhiskerLow != wb.WhiskerLow || gb.WhiskerHigh != wb.WhiskerHigh ||
			len(gb.Outliers) != len(wb.Outliers) {
			t.Fatalf("trial %d: BoxStatsSorted %+v != Box %+v", trial, gb, wb)
		}

		ge, we := NewECDFSorted(s), NewECDF(xs)
		if ge.N() != we.N() || ge.Min() != we.Min() || ge.Max() != we.Max() {
			t.Fatalf("trial %d: ECDF bounds differ", trial)
		}
		for _, p := range []float64{0.05, 0.5, 0.95} {
			if ge.Quantile(p) != we.Quantile(p) {
				t.Fatalf("trial %d: ECDF quantile(%v) differs", trial, p)
			}
		}
	}

	empty := BoxStatsSorted(nil)
	if empty.N != 0 || !math.IsNaN(empty.Median) {
		t.Errorf("BoxStatsSorted(nil) = %+v, want N=0 with NaN stats", empty)
	}
	if !math.IsNaN(FractionAboveSorted(nil, 1)) || !math.IsNaN(FractionBelowSorted(nil, 1)) {
		t.Error("Fraction*Sorted(nil) should be NaN")
	}
}

// FractionBelowSorted is FractionBelow on data already sorted ascending and
// NaN-free: the single-slice reference RunsView.FractionBelow must match bit
// for bit.
func FractionBelowSorted(sorted []float64, threshold float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= threshold })
	return float64(i) / float64(len(sorted))
}
