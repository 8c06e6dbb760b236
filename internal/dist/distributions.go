package dist

import (
	"fmt"
	"math"
	"sort"
)

// Sampler is a one-dimensional distribution that can draw variates from an
// RNG stream. Implementations are immutable and safe for concurrent use with
// distinct RNGs.
type Sampler interface {
	// Sample draws a single variate.
	Sample(r *RNG) float64
}

// ---------------------------------------------------------------------------
// Uniform
// ---------------------------------------------------------------------------

// Uniform is the continuous uniform distribution on [Low, High].
type Uniform struct {
	Low, High float64
}

// Sample draws a uniform variate.
func (u Uniform) Sample(r *RNG) float64 { return u.Low + (u.High-u.Low)*r.Float64() }

// ---------------------------------------------------------------------------
// Lognormal
// ---------------------------------------------------------------------------

// Lognormal is the lognormal distribution: exp(N(Mu, Sigma²)). It is the
// primary model for job run times: the paper's Fig. 3a run-time CDF spans
// nearly four decades with a straight-ish middle on a log axis, the signature
// of a lognormal body.
type Lognormal struct {
	Mu    float64 // mean of the underlying normal (log-space)
	Sigma float64 // stddev of the underlying normal (log-space)
}

// LognormalFromMedianQuartile constructs a lognormal whose median equals
// median and whose 75th percentile equals q75. This mirrors how the paper
// reports run times (median plus quartiles), letting the calibration be
// written directly in the paper's published numbers.
func LognormalFromMedianQuartile(median, q75 float64) Lognormal {
	if median <= 0 || q75 <= median {
		panic(fmt.Sprintf("dist: invalid lognormal calibration median=%v q75=%v", median, q75))
	}
	// For lognormal: Q(p) = exp(mu + sigma*z_p); z_0.75 = 0.6744897501960817.
	const z75 = 0.6744897501960817
	mu := math.Log(median)
	sigma := (math.Log(q75) - mu) / z75
	return Lognormal{Mu: mu, Sigma: sigma}
}

// Sample draws a lognormal variate.
func (l Lognormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// ---------------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------------

// Exponential is the exponential distribution with the given Mean. It models
// inter-arrival gaps and phase durations.
type Exponential struct {
	Mean float64
}

// Sample draws an exponential variate.
func (e Exponential) Sample(r *RNG) float64 { return e.Mean * r.ExpFloat64() }

// ---------------------------------------------------------------------------
// Triangular
// ---------------------------------------------------------------------------

// Triangular is the triangular distribution on [Low, High] with the given
// Mode. It models bounded quantities with a soft peak, such as per-phase
// utilization levels.
type Triangular struct {
	Low, Mode, High float64
}

// Sample draws a triangular variate by inverse transform.
func (t Triangular) Sample(r *RNG) float64 { return t.Quantile(r.Float64()) }

// Quantile returns the inverse CDF at p.
func (t Triangular) Quantile(p float64) float64 {
	p = clamp01(p)
	span := t.High - t.Low
	if span <= 0 {
		return t.Low
	}
	fc := (t.Mode - t.Low) / span
	if p < fc {
		return t.Low + math.Sqrt(p*span*(t.Mode-t.Low))
	}
	return t.High - math.Sqrt((1-p)*span*(t.High-t.Mode))
}

// ---------------------------------------------------------------------------
// Beta (via Jöhnk / gamma-ratio)
// ---------------------------------------------------------------------------

// Beta is the Beta(A, B) distribution on [0, 1]. It models utilization
// fractions; its two shape parameters express both "piled near zero"
// (development/IDE jobs) and "spread with a body" (mature jobs).
type Beta struct {
	A, B float64
}

// Sample draws a Beta variate as the normalized ratio of two gamma variates.
func (b Beta) Sample(r *RNG) float64 {
	x := sampleGamma(r, b.A)
	y := sampleGamma(r, b.B)
	if x+y == 0 {
		return 0
	}
	return x / (x + y)
}

// sampleGamma draws from Gamma(shape, 1) using Marsaglia-Tsang for shape>=1
// and the boost trick for shape<1.
func sampleGamma(r *RNG, shape float64) float64 {
	if shape <= 0 {
		panic("dist: gamma shape must be positive")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64Open()
		return sampleGamma(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// ---------------------------------------------------------------------------
// Mixture
// ---------------------------------------------------------------------------

// Component is one branch of a Mixture.
type Component struct {
	Weight float64
	Dist   Sampler
}

// Mixture samples from one of its components with probability proportional
// to the component weight. Mixtures let the calibration express "30 % of
// jobs have near-zero SM utilization, the rest follow a body distribution"
// exactly as the paper describes Fig. 4a.
type Mixture struct {
	components []Component
	cum        []float64
	total      float64
}

// NewMixture builds a mixture from components. It panics if no component has
// positive weight, because a mixture that cannot sample is a configuration
// bug, not a runtime condition.
func NewMixture(components ...Component) *Mixture {
	m := &Mixture{components: components}
	for _, c := range components {
		if c.Weight < 0 {
			panic("dist: negative mixture weight")
		}
		m.total += c.Weight
		m.cum = append(m.cum, m.total)
	}
	if m.total <= 0 {
		panic("dist: mixture has no positive-weight component")
	}
	return m
}

// Sample picks a component by weight and samples it.
func (m *Mixture) Sample(r *RNG) float64 {
	u := r.Float64() * m.total
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.components) {
		i = len(m.components) - 1
	}
	return m.components[i].Dist.Sample(r)
}

// ---------------------------------------------------------------------------
// Categorical
// ---------------------------------------------------------------------------

// Categorical draws integer category indices with configured weights. It
// backs every "fraction of jobs are X" statement in the calibration (job
// categories, submission interfaces, GPU counts).
type Categorical struct {
	weights []float64
	cum     []float64
	total   float64
}

// NewCategorical builds a categorical distribution over len(weights)
// categories. It panics on negative weights or an all-zero weight vector.
func NewCategorical(weights ...float64) *Categorical {
	c := &Categorical{weights: append([]float64(nil), weights...)}
	for _, w := range weights {
		if w < 0 {
			panic("dist: negative categorical weight")
		}
		c.total += w
		c.cum = append(c.cum, c.total)
	}
	if c.total <= 0 {
		panic("dist: categorical has zero total weight")
	}
	return c
}

// Draw returns a category index in [0, len(weights)).
func (c *Categorical) Draw(r *RNG) int {
	u := r.Float64() * c.total
	i := sort.SearchFloat64s(c.cum, u)
	if i >= len(c.weights) {
		i = len(c.weights) - 1
	}
	return i
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
