package stats

import (
	"math"
	"testing"

	"repro/internal/dist"
)

func TestFractionalRanks(t *testing.T) {
	ranks := FractionalRanks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almost(ranks[i], want[i], 1e-12) {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestSpearmanPerfectMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{1, 4, 9, 16, 25, 36, 49, 64} // monotone, nonlinear
	r := Spearman(xs, ys)
	if !almost(r.Rho, 1, 1e-12) {
		t.Fatalf("rho = %v, want 1", r.Rho)
	}
	if r.PValue > 0.001 {
		t.Fatalf("p-value = %v for perfect correlation", r.PValue)
	}
	inv := Spearman(xs, []float64{8, 7, 6, 5, 4, 3, 2, 1})
	if !almost(inv.Rho, -1, 1e-12) {
		t.Fatalf("inverse rho = %v, want -1", inv.Rho)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Classic example with one discordant pair.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 2, 3, 5, 4}
	r := Spearman(xs, ys)
	if !almost(r.Rho, 0.9, 1e-9) {
		t.Fatalf("rho = %v, want 0.9", r.Rho)
	}
}

func TestSpearmanIndependent(t *testing.T) {
	rng := dist.New(77)
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	r := Spearman(xs, ys)
	if math.Abs(r.Rho) > 0.06 {
		t.Fatalf("independent rho = %v, want ~0", r.Rho)
	}
	if r.PValue < 0.01 {
		t.Fatalf("independent p-value = %v, unexpectedly significant", r.PValue)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if r := Spearman([]float64{1, 2}, []float64{3, 4}); !math.IsNaN(r.Rho) {
		t.Fatalf("n<3 rho = %v, want NaN", r.Rho)
	}
	if r := Spearman([]float64{5, 5, 5, 5}, []float64{1, 2, 3, 4}); !math.IsNaN(r.Rho) {
		t.Fatalf("constant side rho = %v, want NaN", r.Rho)
	}
}

func TestSpearmanSignificanceAtModerateCorrelation(t *testing.T) {
	// Monotone signal plus noise over n=200 should be significant (p<0.05),
	// mirroring the paper's Fig. 12 claim for its 191 users.
	rng := dist.New(13)
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i) + 400*rng.NormFloat64()
	}
	r := Spearman(xs, ys)
	if r.Rho <= 0 {
		t.Fatalf("rho = %v, want positive", r.Rho)
	}
	if r.PValue >= 0.05 {
		t.Fatalf("p = %v, want < 0.05", r.PValue)
	}
}

func TestPearsonKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := pearson(xs, ys); !almost(r, 1, 1e-12) {
		t.Fatalf("pearson = %v, want 1", r)
	}
	if r := pearson(xs, []float64{3, 3, 3, 3}); !math.IsNaN(r) {
		t.Fatalf("pearson against a constant = %v, want NaN", r)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if v := regIncBeta(2, 3, 0); v != 0 {
		t.Fatalf("I_0 = %v", v)
	}
	if v := regIncBeta(2, 3, 1); v != 1 {
		t.Fatalf("I_1 = %v", v)
	}
	// I_x(1,1) is the identity.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if v := regIncBeta(1, 1, x); !almost(v, x, 1e-9) {
			t.Fatalf("I_%v(1,1) = %v", x, v)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.4, 0.7} {
		lhs := regIncBeta(2.5, 4, x)
		rhs := 1 - regIncBeta(4, 2.5, 1-x)
		if !almost(lhs, rhs, 1e-9) {
			t.Fatalf("symmetry broken at %v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestStudentTSF(t *testing.T) {
	// For df -> large, t SF approaches normal SF. SF(1.96, df=1000) ~ 0.025.
	if v := studentTSF(1.96, 1000); math.Abs(v-0.025) > 0.002 {
		t.Fatalf("SF(1.96, 1000) = %v, want ~0.025", v)
	}
	if v := studentTSF(0, 10); v != 0.5 {
		t.Fatalf("SF(0) = %v, want 0.5", v)
	}
}
