package stats

import (
	"math"
	"sort"

	"repro/internal/dist"
)

// CI is a two-sided confidence interval for a statistic.
type CI struct {
	Lo, Hi float64
	// Point is the statistic on the original sample.
	Point float64
	// Level is the nominal coverage, e.g. 0.95.
	Level float64
}

// BootstrapCI estimates a percentile-bootstrap confidence interval for
// stat(xs) using resamples resampling rounds at the given level (e.g. 0.95).
// It is deterministic for a fixed seed. Inputs with fewer than two values
// yield a degenerate interval at the point estimate. The characterization
// uses it to attach uncertainty to the medians EXPERIMENTS.md reports —
// necessary because several paper statistics ride band edges.
func BootstrapCI(xs []float64, stat func([]float64) float64, resamples int, level float64, seed uint64) CI {
	point := stat(xs)
	out := CI{Lo: point, Hi: point, Point: point, Level: level}
	if len(xs) < 2 || resamples < 2 || level <= 0 || level >= 1 {
		return out
	}
	rng := dist.New(seed)
	buf := make([]float64, len(xs))
	vals := make([]float64, 0, resamples)
	for b := 0; b < resamples; b++ {
		for i := range buf {
			buf[i] = xs[rng.Intn(len(xs))]
		}
		v := stat(buf)
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return out
	}
	sort.Float64s(vals)
	alpha := (1 - level) / 2
	out.Lo = quantileSorted(vals, alpha)
	out.Hi = quantileSorted(vals, 1-alpha)
	return out
}
