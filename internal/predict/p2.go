package predict

import "math"

// P2Quantile is the Jain–Chlamtac P² streaming quantile estimator: it tracks
// an arbitrary quantile in O(1) memory using five markers, accurate to a few
// percent on smooth distributions — the right tool for a scheduler-side
// predictor that cannot buffer histories.
//
// Two classic hazards are handled explicitly. Before five observations the
// marker invariants do not exist yet, so the first observations are kept
// sorted in the heights array itself and Value returns the exact
// linearly-interpolated sample quantile (the same convention as
// stats.QuantileSorted — the fuzz harness cross-checks them). And on heavily
// tied data the parabolic marker move can land on or beyond a neighboring
// marker (zero-width cells make the formula degenerate, up to NaN/Inf);
// every move is therefore clamped into the closed neighbor interval and
// non-finite moves are discarded, so the marker monotonicity invariant holds
// for every input stream.
type P2Quantile struct {
	p       float64
	n       int
	heights [5]float64
	pos     [5]float64
	want    [5]float64
	inc     [5]float64
}

// NewP2Quantile tracks the p-quantile (p in (0,1)).
func NewP2Quantile(p float64) P2Quantile {
	if p <= 0 {
		p = 0.01
	}
	if p >= 1 {
		p = 0.99
	}
	q := P2Quantile{p: p}
	q.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	q.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q
}

// Add folds one observation into the estimator.
func (q *P2Quantile) Add(x float64) {
	if q.n < 5 {
		// Insertion-sort the bootstrap sample into the heights array: once
		// the fifth observation lands, the array already is the sorted
		// marker initialization the algorithm requires, and until then
		// Value can read an exact small-sample quantile from it.
		i := q.n
		for i > 0 && q.heights[i-1] > x {
			q.heights[i] = q.heights[i-1]
			i--
		}
		q.heights[i] = x
		q.n++
		if q.n == 5 {
			q.pos = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}
	q.n++
	// Find the cell k containing x and update extreme markers.
	var k int
	switch {
	case x < q.heights[0]:
		q.heights[0] = x
		k = 0
	case x >= q.heights[4]:
		q.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.want[i] += q.inc[i]
	}
	// Adjust interior markers with parabolic interpolation.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := q.parabolic(i, sign)
			if !(q.heights[i-1] < h && h < q.heights[i+1]) {
				h = q.linear(i, sign)
			}
			// Tied-value guard: with duplicated observations both moves can
			// still produce a height outside the neighbor interval (or a
			// NaN/Inf from a zero-width cell). Clamping into the closed
			// interval keeps the markers monotone; a non-finite move carries
			// no information and is dropped entirely.
			if !math.IsNaN(h) && !math.IsInf(h, 0) {
				if h < q.heights[i-1] {
					h = q.heights[i-1]
				}
				if h > q.heights[i+1] {
					h = q.heights[i+1]
				}
				q.heights[i] = h
			}
			q.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic marker move.
func (q *P2Quantile) parabolic(i int, d float64) float64 {
	return q.heights[i] + d/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+d)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-d)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
}

// linear is the fallback marker move.
func (q *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.heights[i] + d*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// Value returns the current estimate and whether any data has arrived. With
// fewer than five observations it is the exact sample quantile under linear
// interpolation (NumPy's default, matching stats.QuantileSorted), computed
// allocation-free from the sorted bootstrap prefix.
func (q *P2Quantile) Value() (float64, bool) {
	switch {
	case q.n == 0:
		return 0, false
	case q.n < 5:
		pos := q.p * float64(q.n-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo < 0 {
			lo = 0
		}
		if hi >= q.n {
			hi = q.n - 1
		}
		if lo == hi {
			return q.heights[lo], true
		}
		frac := pos - float64(lo)
		return q.heights[lo]*(1-frac) + q.heights[hi]*frac, true
	default:
		return q.heights[2], true
	}
}
