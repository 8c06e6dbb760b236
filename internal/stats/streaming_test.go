package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamingMatchesBatch(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var s Streaming
	for _, x := range xs {
		s.Add(x)
	}
	if s.N() != len(xs) {
		t.Fatalf("N = %d", s.N())
	}
	if !almost(s.Mean(), Mean(xs), 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if !almost(s.Variance(), Variance(xs), 1e-12) {
		t.Fatalf("variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if !almost(s.CoV(), 40, 1e-9) {
		t.Fatalf("CoV = %v", s.CoV())
	}
}

func TestStreamingEmpty(t *testing.T) {
	var s Streaming
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) ||
		!math.IsNaN(s.Variance()) || !math.IsNaN(s.CoV()) {
		t.Fatal("empty streaming accumulator should return NaN")
	}
}

// Merge folds another accumulator into this one (parallel variance merge by
// Chan et al.). Production folds every digest in one pass; the tests merge
// split halves to check the moments against a sequential fold.
func (s *Streaming) Merge(o *Streaming) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	delta := o.mean - s.mean
	total := float64(s.n + o.n)
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/total
	s.mean += delta * float64(o.n) / total
	s.sum += o.sum
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

func TestStreamingMerge(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3, 9, 4, 4, 7}
	var whole, left, right Streaming
	for i, x := range xs {
		whole.Add(x)
		if i < 4 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", left.N(), whole.N())
	}
	if !almost(left.Mean(), whole.Mean(), 1e-12) {
		t.Fatalf("merged mean = %v, want %v", left.Mean(), whole.Mean())
	}
	if !almost(left.Variance(), whole.Variance(), 1e-9) {
		t.Fatalf("merged variance = %v, want %v", left.Variance(), whole.Variance())
	}
	if left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Fatal("merged min/max mismatch")
	}
}

func TestStreamingMergeWithEmpty(t *testing.T) {
	var a, b Streaming
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatalf("merge with empty changed state: %+v", a)
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 3 {
		t.Fatalf("merge into empty: %+v", b)
	}
}

// Property: streaming moments match batch moments for any input split.
func TestStreamingMergeProperty(t *testing.T) {
	f := func(raw []float64, splitRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e8 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		split := int(splitRaw) % (len(xs) + 1)
		var a, b Streaming
		for _, x := range xs[:split] {
			a.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
		}
		a.Merge(&b)
		tol := 1e-6 * (1 + math.Abs(Mean(xs)))
		vtol := 1e-6 * (1 + Variance(xs))
		return a.N() == len(xs) &&
			almost(a.Mean(), Mean(xs), tol) &&
			almost(a.Variance(), Variance(xs), vtol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingMatchesBatchBits pins the bit-identity the per-user folds
// rest on: over the same values in the same order, Sum()/N() is Mean's
// left-to-right sum over the count and CoV() is CoV, including one value
// (0) and all zeros (NaN).
func TestStreamingMatchesBatchBits(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(xs []float64) bool {
		var s Streaming
		for _, x := range xs {
			s.Add(x)
		}
		return same(s.Sum()/float64(s.N()), Mean(xs)) && same(s.CoV(), CoV(xs))
	}
	for _, xs := range [][]float64{{0}, {3.5}, {0, 0, 0}, {1e-9, 2, 1e9}, {-1, 1}} {
		if !check(xs) {
			t.Errorf("%v: streaming mean/CoV differ from Mean/CoV", xs)
		}
	}
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e8 {
				xs = append(xs, v)
			}
		}
		return len(xs) == 0 || check(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcentrationTopShare(t *testing.T) {
	// 10 users: one submits 91, the rest submit 1 each.
	contrib := []float64{91, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	c := NewConcentration(contrib)
	if len(c.sortedAsc) != 10 {
		t.Fatalf("N = %d", len(c.sortedAsc))
	}
	if share := c.TopShare(0.1); !almost(share, 0.91, 1e-12) {
		t.Fatalf("top-10%% share = %v, want 0.91", share)
	}
	if share := c.TopShare(1.0); !almost(share, 1, 1e-12) {
		t.Fatalf("top-100%% share = %v, want 1", share)
	}
}

func TestConcentrationGini(t *testing.T) {
	equal := NewConcentration([]float64{5, 5, 5, 5})
	if g := equal.Gini(); !almost(g, 0, 1e-12) {
		t.Fatalf("equal Gini = %v, want 0", g)
	}
	skewed := NewConcentration([]float64{100, 0, 0, 0})
	if g := skewed.Gini(); g < 0.7 {
		t.Fatalf("skewed Gini = %v, want high", g)
	}
}

func TestLorenzCurve(t *testing.T) {
	c := NewConcentration([]float64{3, 1})
	pts := c.LorenzCurve()
	if len(pts) != 2 {
		t.Fatalf("curve has %d points", len(pts))
	}
	if !almost(pts[0].F, 0.75, 1e-12) || !almost(pts[1].F, 1, 1e-12) {
		t.Fatalf("curve = %v", pts)
	}
}
