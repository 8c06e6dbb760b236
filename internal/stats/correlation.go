package stats

import (
	"math"
	"sort"
)

// SpearmanResult holds a Spearman rank correlation and the two-sided p-value
// of the null hypothesis ρ = 0, as used by the paper's Fig. 12 user-trend
// analysis ("all correlations are statistically significant: p-value <0.05").
type SpearmanResult struct {
	Rho    float64 // rank correlation coefficient in [-1, 1]
	PValue float64 // two-sided p-value under the t approximation
	N      int     // number of paired observations
}

// Spearman computes the Spearman rank correlation between xs and ys, handling
// ties by fractional (average) ranks, then applying Pearson correlation to
// the ranks — the same procedure as scipy.stats.spearmanr. It returns NaNs
// when fewer than 3 pairs are available or either side is constant.
func Spearman(xs, ys []float64) SpearmanResult {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	res := SpearmanResult{N: n, Rho: math.NaN(), PValue: math.NaN()}
	if n < 3 {
		return res
	}
	rx := FractionalRanks(xs[:n])
	ry := FractionalRanks(ys[:n])
	rho := pearson(rx, ry)
	if math.IsNaN(rho) {
		return res
	}
	res.Rho = rho
	// t-statistic approximation: t = rho * sqrt((n-2)/(1-rho^2)), df = n-2.
	if math.Abs(rho) >= 1 {
		res.PValue = 0
		return res
	}
	t := rho * math.Sqrt(float64(n-2)/(1-rho*rho))
	res.PValue = 2 * studentTSF(math.Abs(t), float64(n-2))
	return res
}

// FractionalRanks assigns average ranks (1-based) to xs, averaging ranks
// within tie groups.
func FractionalRanks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average of ranks i+1 .. j+1.
		avg := float64(i+j+2) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// pearson returns the Pearson correlation of xs and ys, or NaN if either
// side has zero variance.
func pearson(xs, ys []float64) float64 {
	n := len(xs)
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// studentTSF returns the survival function P(T > t) of Student's t with df
// degrees of freedom, via the regularized incomplete beta function.
func studentTSF(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a + math.Log(1-x)*b + lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta function.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
