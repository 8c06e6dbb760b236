package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mergedRef flattens and sorts the runs — the reference the view must match
// bit for bit.
func mergedRef(runs [][]float64) []float64 {
	var all []float64
	for _, r := range runs {
		all = append(all, r...)
	}
	sort.Float64s(all)
	return all
}

func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestRunsViewMatchesMerged is the selection-equivalence property: every
// RunsView query over random run decompositions (including heavy ties, empty
// runs, and >2 runs) returns the same bits as the single-slice helper over
// the merged data.
func TestRunsViewMatchesMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		nRuns := rng.Intn(4) + 1
		runs := make([][]float64, nRuns)
		for i := range runs {
			m := rng.Intn(40)
			r := make([]float64, m)
			for j := range r {
				// Coarse grid to force cross-run ties.
				r[j] = float64(rng.Intn(12)) + float64(rng.Intn(4))/4
			}
			sort.Float64s(r)
			runs[i] = r
		}
		ref := mergedRef(runs)
		v := NewRunsView(runs...)

		if v.N() != len(ref) {
			t.Fatalf("trial %d: N = %d, want %d", trial, v.N(), len(ref))
		}
		if len(ref) == 0 {
			if !math.IsNaN(v.Min()) || !math.IsNaN(v.Max()) || !math.IsNaN(v.Quantile(0.5)) ||
				!math.IsNaN(v.FractionBelow(1)) || !math.IsNaN(v.FractionAbove(1)) || v.Points(8) != nil {
				t.Fatalf("trial %d: empty view should answer NaN/nil", trial)
			}
			continue
		}
		if !bitsEq(v.Min(), ref[0]) || !bitsEq(v.Max(), ref[len(ref)-1]) {
			t.Fatalf("trial %d: Min/Max = %v/%v, want %v/%v", trial, v.Min(), v.Max(), ref[0], ref[len(ref)-1])
		}
		for k := range ref {
			if got := v.AtRank(k); !bitsEq(got, ref[k]) {
				t.Fatalf("trial %d: AtRank(%d) = %v, want %v", trial, k, got, ref[k])
			}
		}
		for _, p := range []float64{-1, 0, 0.01, 0.25, 0.5, 0.75, 0.99, 1, 2} {
			if got, want := v.Quantile(p), QuantileSorted(ref, p); !bitsEq(got, want) {
				t.Fatalf("trial %d: Quantile(%v) = %v, want %v", trial, p, got, want)
			}
		}
		for _, th := range []float64{-1, 0, 2, 5.5, 11, 20} {
			if got, want := v.FractionBelow(th), FractionBelowSorted(ref, th); !bitsEq(got, want) {
				t.Fatalf("trial %d: FractionBelow(%v) = %v, want %v", trial, th, got, want)
			}
			if got, want := v.FractionAbove(th), FractionAboveSorted(ref, th); !bitsEq(got, want) {
				t.Fatalf("trial %d: FractionAbove(%v) = %v, want %v", trial, th, got, want)
			}
		}
		for _, mp := range []int{0, 1, 7, 64, len(ref), len(ref) * 2} {
			got := v.Points(mp)
			want := NewECDFSorted(ref).Points(mp)
			if len(got) != len(want) {
				t.Fatalf("trial %d: Points(%d) len %d, want %d", trial, mp, len(got), len(want))
			}
			for i := range got {
				if !bitsEq(got[i].X, want[i].X) || !bitsEq(got[i].F, want[i].F) {
					t.Fatalf("trial %d: Points(%d)[%d] = %+v, want %+v", trial, mp, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRunsViewBoxAndKSMatchMerged extends the equivalence to the two walks
// RunsView adds over the merged order: Box (quartiles, whiskers and every
// outlier, in order) must equal BoxStatsSorted, and UniformityDistance must
// equal ECDF.UniformityDistance, bit for bit, over random run
// decompositions with heavy ties and long tails on both sides.
func TestRunsViewBoxAndKSMatchMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		runs := make([][]float64, rng.Intn(4)+1)
		for i := range runs {
			r := make([]float64, rng.Intn(60))
			for j := range r {
				r[j] = float64(rng.Intn(20)) / 2
				if rng.Intn(8) == 0 { // tails beyond the Tukey fences
					r[j] = (rng.Float64() - 0.5) * 400
				}
			}
			sort.Float64s(r)
			runs[i] = r
		}
		ref := mergedRef(runs)
		v := NewRunsView(runs...)

		got, want := v.Box(), BoxStatsSorted(ref)
		if got.N != want.N || !bitsEq(got.Median, want.Median) || !bitsEq(got.Q1, want.Q1) ||
			!bitsEq(got.Q3, want.Q3) || !bitsEq(got.WhiskerLow, want.WhiskerLow) ||
			!bitsEq(got.WhiskerHigh, want.WhiskerHigh) || len(got.Outliers) != len(want.Outliers) ||
			(got.Outliers == nil) != (want.Outliers == nil) {
			t.Fatalf("trial %d: Box = %+v, want %+v", trial, got, want)
		}
		for i := range want.Outliers {
			if !bitsEq(got.Outliers[i], want.Outliers[i]) {
				t.Fatalf("trial %d: Outliers[%d] = %v, want %v", trial, i, got.Outliers[i], want.Outliers[i])
			}
		}

		e := NewECDFSorted(ref)
		for _, b := range [][2]float64{{e.Min(), e.Max()}, {0, 10}, {-50, 50}, {3, 3}} {
			if got, want := v.UniformityDistance(b[0], b[1]), e.UniformityDistance(b[0], b[1]); !bitsEq(got, want) {
				t.Fatalf("trial %d: UniformityDistance(%v, %v) = %v, want %v", trial, b[0], b[1], got, want)
			}
		}
	}
}

// TestRunsViewRankBounds pins the panic contract on out-of-range ranks.
func TestRunsViewRankBounds(t *testing.T) {
	v := NewRunsView([]float64{1, 2}, []float64{3})
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AtRank(%d) should panic", k)
				}
			}()
			v.AtRank(k)
		}()
	}
}
