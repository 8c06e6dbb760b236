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

// Merge folds another accumulator into this one (parallel variance merge by
// Chan et al.), letting per-node accumulators combine in the epilog.
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

// StreamingState is the exact wire form of a Streaming accumulator: every
// internal field, bit for bit. A snapshot/restore cycle through it yields an
// accumulator whose future Adds and Merges produce byte-identical results —
// the property the durable store's recovery contract rests on. All fields
// are finite for any accumulator built from finite observations, so the
// state is JSON-safe.
type StreamingState struct {
	N          int     `json:"n"`
	Mean       float64 `json:"mean"`
	M2         float64 `json:"m2"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	Sum        float64 `json:"sum"`
	HasSamples bool    `json:"has_samples,omitempty"`
}

// State exports the accumulator's internal state.
func (s *Streaming) State() StreamingState {
	return StreamingState{
		N: s.n, Mean: s.mean, M2: s.m2,
		Min: s.min, Max: s.max, Sum: s.sum,
		HasSamples: s.hasSamples,
	}
}

// FromState reconstructs the accumulator an earlier State call exported.
func FromState(st StreamingState) Streaming {
	return Streaming{
		n: st.N, mean: st.Mean, m2: st.M2,
		min: st.Min, max: st.Max, sum: st.Sum,
		hasSamples: st.HasSamples,
	}
}
