package stats

import (
	"math"
	"testing"
)

func TestAggMomentsMatchBatch(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	var a Agg
	for _, x := range xs {
		a.Add(x)
	}
	if a.N() != len(xs) || a.Defined() != len(xs) {
		t.Fatalf("counts: N=%d Defined=%d want %d", a.N(), a.Defined(), len(xs))
	}
	if got, want := a.Mean(), Mean(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean %v want %v", got, want)
	}
	if got, want := a.Median(), Median(xs); got != want {
		t.Fatalf("median %v want %v", got, want)
	}
	if a.Min() != 1 || a.Max() != 9 {
		t.Fatalf("min/max %v/%v want 1/9", a.Min(), a.Max())
	}
}

func TestAggNaNExcludedFromMoments(t *testing.T) {
	var a Agg
	a.Add(2)
	a.Add(math.NaN())
	a.Add(4)
	if a.N() != 3 || a.Defined() != 2 {
		t.Fatalf("N=%d Defined=%d want 3/2", a.N(), a.Defined())
	}
	if a.Mean() != 3 {
		t.Fatalf("mean %v want 3", a.Mean())
	}
	if a.Median() != 3 {
		t.Fatalf("median %v want 3", a.Median())
	}
}

func TestAggMergeEqualsSequential(t *testing.T) {
	xs := []float64{0.5, 2.25, -1, 7, 3.5, math.NaN(), 4}
	var whole Agg
	for _, x := range xs {
		whole.Add(x)
	}
	var left, right Agg
	for _, x := range xs[:3] {
		left.Add(x)
	}
	for _, x := range xs[3:] {
		right.Add(x)
	}
	left.Merge(&right)
	if left.N() != whole.N() || left.Defined() != whole.Defined() {
		t.Fatalf("merged counts differ: %d/%d vs %d/%d", left.N(), left.Defined(), whole.N(), whole.Defined())
	}
	if math.Abs(left.Mean()-whole.Mean()) > 1e-12 {
		t.Fatalf("merged mean %v vs sequential %v", left.Mean(), whole.Mean())
	}
	if math.Abs(left.StdDev()-whole.StdDev()) > 1e-12 {
		t.Fatalf("merged stddev %v vs sequential %v", left.StdDev(), whole.StdDev())
	}
	for i, v := range whole.Values() {
		lv := left.Values()[i]
		if lv != v && !(math.IsNaN(lv) && math.IsNaN(v)) {
			t.Fatalf("value order changed at %d: %v vs %v", i, lv, v)
		}
	}
}

func TestAggStdErr(t *testing.T) {
	var a Agg
	for _, x := range []float64{1, 2, 3, 4} {
		a.Add(x)
	}
	// Sample variance of 1..4 is 5/3; stderr = sqrt(5/3/4).
	want := math.Sqrt(5.0 / 3.0 / 4.0)
	if got := a.StdErr(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stderr %v want %v", got, want)
	}
	var single Agg
	single.Add(1)
	if !math.IsNaN(single.StdErr()) {
		t.Fatal("stderr of one value should be NaN")
	}
}

func TestAggMeanCIDeterministic(t *testing.T) {
	build := func() *Agg {
		var a Agg
		for _, x := range []float64{5, 8, 2, 9, 4, 7, 6, 3} {
			a.Add(x)
		}
		return &a
	}
	c1 := build().MeanCI(200, 0.95, 11)
	c2 := build().MeanCI(200, 0.95, 11)
	if c1 != c2 {
		t.Fatalf("bootstrap CI not deterministic: %+v vs %+v", c1, c2)
	}
	if !(c1.Lo <= c1.Point && c1.Point <= c1.Hi) {
		t.Fatalf("CI does not bracket point: %+v", c1)
	}
}

func TestAggEmpty(t *testing.T) {
	var a Agg
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Median()) || !math.IsNaN(a.Min()) {
		t.Fatal("empty aggregate should report NaN statistics")
	}
	if a.N() != 0 {
		t.Fatalf("empty N = %d", a.N())
	}
}

// Merge folds another aggregate's values after this one's, preserving fold
// order (this's replications first, then o's). The replication engine always
// merges in replication-index order, so the result is independent of which
// worker produced which piece.
func (a *Agg) Merge(o *Agg) {
	a.values = append(a.values, o.values...)
	a.moments.Merge(&o.moments)
}
