package stats

import (
	"math"
	"sort"
)

// Concentration quantifies how unevenly a quantity (jobs, GPU hours) is
// spread across contributors (users). It backs the paper's §IV Pareto
// statements: "top 5 % of the users submit 44 % of the jobs, and top 20 % of
// the users submit 83.2 % of the jobs".
type Concentration struct {
	sortedAsc []float64 // contributions, ascending; consumers walk from the tail
	total     float64
}

// NewConcentration builds a Concentration over per-contributor totals.
// Negative contributions are invalid and dropped. The contributions are
// sorted ascending once; every consumer indexes from the tail, visiting
// values in exactly the descending sequence a reverse sort would give, so
// TopShare/Gini/LorenzCurve results are byte-identical to the reverse-sorted
// formulation without the extra interface-boxed sort pass.
func NewConcentration(contributions []float64) *Concentration {
	c := &Concentration{}
	for _, v := range contributions {
		if v >= 0 && !math.IsNaN(v) {
			c.sortedAsc = append(c.sortedAsc, v)
			c.total += v
		}
	}
	sort.Float64s(c.sortedAsc)
	return c
}

// TopShare returns the fraction of the total contributed by the top
// topFrac (in (0,1]) of contributors. TopShare(0.05) answers "what share do
// the top 5 % of users hold".
func (c *Concentration) TopShare(topFrac float64) float64 {
	n := len(c.sortedAsc)
	if n == 0 || c.total == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(topFrac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	var s float64
	for i := n - 1; i >= n-k; i-- { // largest first
		s += c.sortedAsc[i]
	}
	return s / c.total
}

// Gini returns the Gini coefficient of the contributions: 0 for perfect
// equality, approaching 1 as one contributor dominates.
func (c *Concentration) Gini() float64 {
	n := len(c.sortedAsc)
	if n == 0 || c.total == 0 {
		return math.NaN()
	}
	// Standard rank formula G = 2*sum_i(i*x_(i))/(n*total) - (n+1)/n over
	// ascending order; walking the tail first keeps the accumulation order
	// of the descending formulation (weight n for the largest value).
	var weighted float64
	for i := n - 1; i >= 0; i-- {
		weighted += float64(i+1) * c.sortedAsc[i]
	}
	return (2*weighted/c.total - float64(n+1)) / float64(n)
}

// LorenzCurve returns points of the Lorenz curve: for each contributor count
// k (largest first), the cumulative share of the total. Point k has
// X = k/n (fraction of contributors) and F = cumulative share.
func (c *Concentration) LorenzCurve() []Point {
	n := len(c.sortedAsc)
	if n == 0 || c.total == 0 {
		return nil
	}
	pts := make([]Point, n)
	var cum float64
	for k, i := 0, n-1; i >= 0; k, i = k+1, i-1 {
		cum += c.sortedAsc[i]
		pts[k] = Point{X: float64(k+1) / float64(n), F: cum / c.total}
	}
	return pts
}
