package stats

import "math"

// Streaming accumulates count, mean, variance (Welford's algorithm), min and
// max in O(1) memory. The monitoring pipeline uses it to compute per-job
// metric summaries without holding the 100 ms sample stream resident — the
// same engineering constraint the paper cites for only recording min/mean/max
// per job in production.
type Streaming struct {
	n          int
	mean, m2   float64
	min, max   float64
	sum        float64
	hasSamples bool
}

// Add folds one observation into the accumulator.
func (s *Streaming) Add(x float64) {
	if !s.hasSamples {
		s.min, s.max = x, x
		s.hasSamples = true
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations folded in.
func (s *Streaming) N() int { return s.n }

// Mean returns the running mean, or NaN before any observation.
func (s *Streaming) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Sum returns the running sum.
func (s *Streaming) Sum() float64 { return s.sum }

// Variance returns the running population variance, or NaN before any
// observation.
func (s *Streaming) Variance() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the running population standard deviation.
func (s *Streaming) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CoV returns the coefficient of variation of the observations in percent,
// bit-identical to CoV over the same values in the same order: NaN before
// any observation or for a zero mean, and 0 for a single observation.
func (s *Streaming) CoV() float64 {
	switch {
	case s.n == 0:
		return math.NaN()
	case s.n == 1:
		return 0
	case s.mean == 0:
		return math.NaN()
	}
	return math.Sqrt(s.m2/float64(s.n)) / math.Abs(s.mean) * 100
}

// Min returns the smallest observation, or NaN before any observation.
func (s *Streaming) Min() float64 {
	if !s.hasSamples {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN before any observation.
func (s *Streaming) Max() float64 {
	if !s.hasSamples {
		return math.NaN()
	}
	return s.max
}
