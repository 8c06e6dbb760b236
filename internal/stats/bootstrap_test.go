package stats

import (
	"math"
	"testing"

	"repro/internal/dist"
)

func TestBootstrapCIBracketsTruth(t *testing.T) {
	// Median of a lognormal sample: the CI should bracket the true median
	// (1.0 for sigma=1, mu=0) in the vast majority of trials.
	rng := dist.New(7)
	hits := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 300)
		for i := range xs {
			xs[i] = math.Exp(rng.NormFloat64())
		}
		ci := BootstrapCI(xs, Median, 400, 0.95, uint64(trial+1))
		if ci.Lo > ci.Hi {
			t.Fatalf("inverted CI: %+v", ci)
		}
		if ci.Point < ci.Lo || ci.Point > ci.Hi {
			t.Fatalf("CI excludes its own point estimate: %+v", ci)
		}
		if ci.Lo <= 1 && 1 <= ci.Hi {
			hits++
		}
	}
	if hits < trials*80/100 {
		t.Fatalf("true median covered in only %d/%d trials", hits, trials)
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	a := BootstrapCI(xs, Median, 200, 0.9, 42)
	b := BootstrapCI(xs, Median, 200, 0.9, 42)
	if a != b {
		t.Fatalf("bootstrap not deterministic: %+v vs %+v", a, b)
	}
	c := BootstrapCI(xs, Median, 200, 0.9, 43)
	if a == c {
		t.Fatal("different seeds gave identical CI (suspicious)")
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	ci := BootstrapCI([]float64{5}, Median, 100, 0.95, 1)
	if ci.Lo != 5 || ci.Hi != 5 || ci.Point != 5 {
		t.Fatalf("singleton CI: %+v", ci)
	}
	if w := ci.Hi - ci.Lo; w != 0 {
		t.Fatalf("width = %v", w)
	}
	empty := BootstrapCI(nil, Median, 100, 0.95, 1)
	if !math.IsNaN(empty.Point) {
		t.Fatalf("empty point = %v", empty.Point)
	}
}

func TestBootstrapCIWidensWithLevel(t *testing.T) {
	rng := dist.New(9)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	narrow := BootstrapCI(xs, Median, 500, 0.5, 2)
	wide := BootstrapCI(xs, Median, 500, 0.99, 2)
	if wide.Hi-wide.Lo <= narrow.Hi-narrow.Lo {
		t.Fatalf("99%% CI (%v) not wider than 50%% CI (%v)", wide.Hi-wide.Lo, narrow.Hi-narrow.Lo)
	}
}
