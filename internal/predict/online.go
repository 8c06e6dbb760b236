package predict

// Online prediction for the scheduler (ISSUE 7 tentpole): the pieces that
// turn this package's after-the-fact trace predictors into decision inputs
// for a live scheduling pass.
//
//   - Features/OnlineClassifier: classify a RUNNING job's life-cycle
//     category from its first-k monitor samples plus submit-time facts — the
//     partial-telemetry task of the MIT Supercloud Challenge (2204.05839).
//     The classifier is a streaming nearest-centroid model: per-category
//     feature centroids, normalized by global per-feature scale, updated
//     only at job completion (predict→observe, no leakage).
//   - RuntimeForecaster: forecast a job's runtime before it starts, QSSF-
//     style (Hu et al., 2109.01313), from a cascade of streaming priors —
//     per-user P² median when the user has history, the user's exit-history
//     class mix blended over per-class medians when the user is thin, the
//     global median otherwise — every estimate clamped to the requested
//     limit, which real Slurm enforces by killing the job.
//
// Everything is deterministic, allocation-light (per-user state is
// slice-indexed, matching the generator's dense user IDs), and O(1) per
// observation — "lightweight, suited for production" (§IV).

import (
	"math"

	"repro/internal/trace"
)

// Feature vector layout for the online classifier.
const (
	FeatSMMean = iota
	FeatMemMean
	FeatMemSizeMean
	FeatActiveFrac
	FeatInteractive
	FeatMultiGPU
	FeatLimitHours

	NumFeatures
)

// Features is one job's observable description at decision time: prefix
// telemetry means plus submit-time facts.
type Features [NumFeatures]float64

// MakeFeatures assembles the vector from prefix-digest means and the job's
// submit-time request shape.
func MakeFeatures(smMean, memMean, memSizeMean, activeFrac float64, interactive, multiGPU bool, limitHours float64) Features {
	var f Features
	f[FeatSMMean] = smMean
	f[FeatMemMean] = memMean
	f[FeatMemSizeMean] = memSizeMean
	f[FeatActiveFrac] = activeFrac
	if interactive {
		f[FeatInteractive] = 1
	}
	if multiGPU {
		f[FeatMultiGPU] = 1
	}
	f[FeatLimitHours] = limitHours
	return f
}

// OnlineClassifier is a streaming nearest-centroid life-cycle classifier.
// The zero value is ready to use and answers (0, false) until it has seen
// at least two completed jobs from at least two categories.
type OnlineClassifier struct {
	count [trace.NumCategories]float64
	sum   [trace.NumCategories]Features
	// Global per-feature scale (Welford), so distance is comparable across
	// percent-valued and hour-valued features.
	n    float64
	mean Features
	m2   Features
}

// Observe folds one completed job's features and true category in.
func (c *OnlineClassifier) Observe(f Features, cat trace.Category) {
	if cat < 0 || cat >= trace.NumCategories {
		return
	}
	c.count[cat]++
	for i := 0; i < NumFeatures; i++ {
		c.sum[cat][i] += f[i]
	}
	c.n++
	for i := 0; i < NumFeatures; i++ {
		d := f[i] - c.mean[i]
		c.mean[i] += d / c.n
		c.m2[i] += d * (f[i] - c.mean[i])
	}
}

// Classify returns the nearest category centroid under globally scaled
// Euclidean distance, or (0, false) while the model is cold (fewer than two
// observed categories). Ties break toward the lower category index, keeping
// the decision deterministic.
func (c *OnlineClassifier) Classify(f Features) (trace.Category, bool) {
	seen := 0
	for cat := trace.Category(0); cat < trace.NumCategories; cat++ {
		if c.count[cat] > 0 {
			seen++
		}
	}
	if seen < 2 {
		return 0, false
	}
	var scale Features
	for i := 0; i < NumFeatures; i++ {
		scale[i] = math.Sqrt(c.m2[i]/c.n) + 1e-9
	}
	best := trace.Category(0)
	bestD := math.Inf(1)
	for cat := trace.Category(0); cat < trace.NumCategories; cat++ {
		if c.count[cat] == 0 {
			continue
		}
		d := 0.0
		for i := 0; i < NumFeatures; i++ {
			diff := (f[i] - c.sum[cat][i]/c.count[cat]) / scale[i]
			d += diff * diff
		}
		if d < bestD {
			bestD = d
			best = cat
		}
	}
	return best, true
}

// RuntimeForecaster predicts job runtimes from streaming priors. The zero
// value works; NewRuntimeForecaster sets the production defaults.
type RuntimeForecaster struct {
	// MinUserObs gates the per-user median: below it the user's thin history
	// only contributes through the class-mix blend.
	MinUserObs int
	// ObsScale multiplies every observed runtime before it enters the
	// priors — the mispredict-robustness knob: <1 models users whose history
	// under-represents their future runtimes (the forecaster will
	// under-estimate), >1 the reverse. 0 means 1 (faithful observations).
	ObsScale float64
	// FreezeAfterObs stops learning after that many observations — the
	// stale-prior scenario. 0 means never freeze.
	FreezeAfterObs int

	observed int
	global   P2Quantile
	class    [trace.NumCategories]P2Quantile
	users    []userPrior
}

// userPrior is one user's streaming runtime state.
type userPrior struct {
	med P2Quantile
	n   int
	mix [trace.NumCategories]int // exit-history class mix
}

// NewRuntimeForecaster returns a forecaster with production defaults.
func NewRuntimeForecaster() *RuntimeForecaster {
	f := &RuntimeForecaster{MinUserObs: 3}
	f.initQuantiles()
	return f
}

// initQuantiles lazily sets up the P² targets; it makes the zero value safe.
func (f *RuntimeForecaster) initQuantiles() {
	if f.global.p == 0 {
		f.global = NewP2Quantile(0.5)
		for c := range f.class {
			f.class[c] = NewP2Quantile(0.5)
		}
	}
}

// Observe feeds one completed job's true runtime and life-cycle category.
func (f *RuntimeForecaster) Observe(user int, cat trace.Category, runSec float64) {
	f.initQuantiles()
	f.observed++
	if f.FreezeAfterObs > 0 && f.observed > f.FreezeAfterObs {
		return // stale priors: the model stops tracking the workload
	}
	v := runSec
	if f.ObsScale > 0 {
		v = runSec * f.ObsScale
	}
	f.global.Add(v)
	if cat >= 0 && cat < trace.NumCategories {
		f.class[cat].Add(v)
	}
	if user >= 0 {
		for user >= len(f.users) {
			f.users = append(f.users, userPrior{med: NewP2Quantile(0.5)})
		}
		u := &f.users[user]
		u.med.Add(v)
		u.n++
		if cat >= 0 && cat < trace.NumCategories {
			u.mix[cat]++
		}
	}
}

// Predict forecasts the next runtime for user, clamped to (0, limitSec]
// when a positive limit is given. ok is false only while the forecaster has
// no observations at all.
func (f *RuntimeForecaster) Predict(user int, limitSec float64) (float64, bool) {
	f.initQuantiles()
	est, ok := 0.0, false
	minObs := f.MinUserObs
	if minObs < 1 {
		minObs = 1
	}
	if user >= 0 && user < len(f.users) {
		u := &f.users[user]
		if u.n >= minObs {
			est, ok = u.med.Value()
		} else if u.n > 0 {
			// Thin history: blend the per-class medians by the user's own
			// exit-history mix — the lifecycle prior.
			var wsum, vsum float64
			for cat := trace.Category(0); cat < trace.NumCategories; cat++ {
				if u.mix[cat] == 0 {
					continue
				}
				if cv, cok := f.class[cat].Value(); cok {
					w := float64(u.mix[cat])
					wsum += w
					vsum += w * cv
				}
			}
			if wsum > 0 {
				est, ok = vsum/wsum, true
			}
		}
	}
	if !ok {
		est, ok = f.global.Value()
	}
	if !ok {
		return 0, false
	}
	return clampRuntime(est, limitSec), true
}

// PredictClass forecasts the runtime of a job believed to be in category
// cat — the estimate the scheduler refines a running job with once its
// prefix telemetry has been classified.
func (f *RuntimeForecaster) PredictClass(cat trace.Category, limitSec float64) (float64, bool) {
	f.initQuantiles()
	if cat >= 0 && cat < trace.NumCategories {
		if v, ok := f.class[cat].Value(); ok {
			return clampRuntime(v, limitSec), true
		}
	}
	if v, ok := f.global.Value(); ok {
		return clampRuntime(v, limitSec), true
	}
	return 0, false
}

// clampRuntime bounds an estimate to at least one second and, with a
// positive limit, at most the requested wall-clock limit (Slurm kills past
// it, so no truthful estimate exceeds it).
func clampRuntime(est, limitSec float64) float64 {
	if est < 1 {
		est = 1
	}
	if limitSec > 0 && est > limitSec {
		est = limitSec
	}
	return est
}
