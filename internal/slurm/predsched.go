package slurm

// Prediction-aware backfill (ISSUE 7 tentpole). The default reservation guard
// is deliberately blunt: once a blocked GPU job ages past
// ReservationAgeSec, every GPU job behind it is skipped so freed devices
// accumulate for the reservation. That fence costs short jobs hours of
// avoidable queueing — the paper's §IV observation is that requested
// wall-clock limits are too uninformative to do better, and its implication
// is that predicted runtimes could. This file acts on that implication:
//
//   - Every started job gets a runtime estimate from a streaming
//     predict.RuntimeForecaster (per-user median → exit-history class mix →
//     global median, QSSF-style), or its requested limit under the
//     UseRequestedLimit baseline / while the forecaster is cold.
//   - While a reservation is armed, a GPU candidate is admitted anyway when
//     its predicted completion lands at or before the reservation's shadow
//     time — the earliest instant enough GPUs are projected free — so a
//     correct prediction cannot delay the reserved start (EASY backfill's
//     invariant, with predictions in place of limits).
//   - Mispredict safety is layered: a running job that overruns its estimate
//     is re-projected at its requested limit (the bound real Slurm enforces
//     by killing), and once the reserved job has waited 2×ReservationAgeSec
//     the starvation brake stops all predictive admissions, restoring the
//     conservative fence.
//   - Running GPU jobs past their first k monitor samples are re-classified
//     from prefix telemetry (monitor.PrefixDigest → predict.OnlineClassifier)
//     and re-estimated from their class median — the partial-telemetry task
//     of the Supercloud challenge, used online.
//
// All state updates ride existing events (start/finish/kill), so the
// predictor is a pure function of the event order and both event-queue
// implementations (the calendar production queue and the heap spec in
// naive_test.go) produce byte-identical prediction-aware runs — the
// differential matrix pins that down.

import (
	"math"
	"sort"

	"repro/internal/lifecycle"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PredictPolicy configures prediction-aware backfill. The zero value disables
// it entirely: no predictor is allocated and the scheduler's default path —
// including its zero-allocation steady state — is untouched. Prediction only
// changes behavior while a reservation is armed, so it also requires
// Policy.ReservationAgeSec > 0 to have any effect.
type PredictPolicy struct {
	// Enabled turns the prediction layer on.
	Enabled bool
	// UseRequestedLimit is the uninformative baseline the paper's §IV
	// measures: backfill feasibility uses the requested wall-clock limit as
	// the runtime estimate instead of a forecast. With the generator's
	// long padded limits it almost never admits — which is the point.
	UseRequestedLimit bool
	// PrefixSamples (k) and PrefixIntervalSec configure running-job
	// refinement: once a running GPU job is k·interval old, its first-k
	// monitor-grid samples are digested, classified, and its estimate
	// replaced by its class median. Either value <= 0 disables refinement.
	PrefixSamples     int
	PrefixIntervalSec float64
	// MinUserObs, ObsScale, and FreezeAfterObs pass through to the
	// RuntimeForecaster; ObsScale and FreezeAfterObs are the
	// mispredict-robustness knobs (biased users, stale priors).
	MinUserObs     int
	ObsScale       float64
	FreezeAfterObs int
}

// DefaultPredictPolicy returns the production prediction-aware configuration:
// forecasts on, refinement from the first 8 minutes of telemetry.
func DefaultPredictPolicy() PredictPolicy {
	return PredictPolicy{Enabled: true, PrefixSamples: 8, PrefixIntervalSec: 60}
}

// schedPredictor is the scheduler's online prediction state: one forecaster,
// one prefix classifier, and per-job estimate bookkeeping. All of it is
// slice-indexed by spec index, so updates are O(1) and iteration order never
// touches a map.
type schedPredictor struct {
	pol PredictPolicy
	fc  *predict.RuntimeForecaster
	cls predict.OnlineClassifier

	estSec  []float64 // active runtime estimate per started spec index
	refined []bool    // prefix refinement already attempted for this attempt
	// runningGPU holds the spec indices of currently running GPU jobs (the
	// jobs whose projected releases define shadow times); runPos is the
	// inverse index, -1 when absent, so kills remove in O(1).
	runningGPU []int32
	runPos     []int32
	ends       []runningEnd // scratch for shadow projection

	monitorSeed uint64
}

// runningEnd is one running job's projected release for the shadow scan.
type runningEnd struct {
	endSec float64
	idx    int32
	gpus   int32
}

// newSchedPredictor allocates prediction state for an n-spec run.
func newSchedPredictor(pol PredictPolicy, n int, monitorSeed uint64) *schedPredictor {
	fc := predict.NewRuntimeForecaster()
	if pol.MinUserObs > 0 {
		fc.MinUserObs = pol.MinUserObs
	}
	fc.ObsScale = pol.ObsScale
	fc.FreezeAfterObs = pol.FreezeAfterObs
	p := &schedPredictor{
		pol:         pol,
		fc:          fc,
		estSec:      make([]float64, n),
		refined:     make([]bool, n),
		runPos:      make([]int32, n),
		monitorSeed: monitorSeed,
	}
	for i := range p.runPos {
		p.runPos[i] = -1
	}
	return p
}

// refinementOn reports whether prefix refinement is configured; the
// requested-limit baseline never refines (it models a predictor-free Slurm).
func (p *schedPredictor) refinementOn() bool {
	return !p.pol.UseRequestedLimit && p.pol.PrefixSamples > 0 && p.pol.PrefixIntervalSec > 0
}

// estimate forecasts sp's runtime for an admission decision. The cold
// forecaster and the UseRequestedLimit baseline both answer the requested
// limit — the conservative bound.
func (p *schedPredictor) estimate(sp *workload.JobSpec) float64 {
	if !p.pol.UseRequestedLimit {
		if est, ok := p.fc.Predict(sp.User, sp.LimitSec); ok {
			return est
		}
	}
	return sp.LimitSec
}

// features digests sp's first-k monitor-grid samples into the classifier's
// feature vector. The digest draws from its own salted stream, so it never
// perturbs the monitoring pipeline's noise sequence.
func (p *schedPredictor) features(sp *workload.JobSpec) predict.Features {
	var d monitor.PrefixDigest
	rng := monitor.PrefixRNG(p.monitorSeed, sp.ID)
	for _, prof := range sp.Profiles {
		d.Accumulate(prof, p.pol.PrefixSamples, p.pol.PrefixIntervalSec, rng)
	}
	return predict.MakeFeatures(d.SMMean(), d.MemMean(), d.MemSizeMean(), d.ActiveFrac(),
		sp.Interface == trace.Interactive, sp.NumGPUs > 1, sp.LimitSec/3600)
}

// onStart records the estimate the admission used and tracks GPU attempts in
// the running set. Requeued attempts re-enter with a fresh estimate.
func (p *schedPredictor) onStart(idx int, sp *workload.JobSpec) {
	p.estSec[idx] = p.estimate(sp)
	p.refined[idx] = false
	if sp.IsGPU() && p.runPos[idx] < 0 {
		p.runPos[idx] = int32(len(p.runningGPU))
		p.runningGPU = append(p.runningGPU, int32(idx))
	}
}

// onFinish scores the completed attempt against the estimate the scheduler
// last used for it, then feeds the predictor the ground truth: the true
// runtime and life-cycle class enter the forecaster, and (when refinement is
// configured) the prefix features enter the classifier. Predict → observe,
// in event order — the no-leakage discipline.
func (p *schedPredictor) onFinish(idx int, sp *workload.JobSpec, res *Result, now float64, st *Stats) {
	est := p.estSec[idx]
	actual := now - res.StartSec
	if actual <= est {
		st.PredictHits++
	} else {
		st.PredictMisses++
	}
	st.PredictAbsErrSec += math.Abs(actual - est)
	cat := lifecycle.ClassifyParts(sp.Exit, sp.Interface)
	p.fc.Observe(sp.User, cat, sp.RunSec)
	if p.refinementOn() && sp.IsGPU() && len(sp.Profiles) > 0 {
		p.cls.Observe(p.features(sp), cat)
	}
	p.remove(idx)
}

// onKill drops a killed attempt from the running set without scoring it; the
// next attempt re-registers through onStart.
func (p *schedPredictor) onKill(idx int) { p.remove(idx) }

// remove swap-deletes idx from the running-GPU set.
func (p *schedPredictor) remove(idx int) {
	pos := p.runPos[idx]
	if pos < 0 {
		return
	}
	last := int32(len(p.runningGPU) - 1)
	moved := p.runningGPU[last]
	p.runningGPU[pos] = moved
	p.runPos[moved] = pos
	p.runningGPU = p.runningGPU[:last]
	p.runPos[idx] = -1
}

// refineRunning re-estimates running GPU jobs whose prefix window has fully
// elapsed: classify the first-k samples, adopt the class median. Attempted
// once per attempt; the no-future-leakage contract holds because the digest
// stops at k·interval ≤ elapsed.
func (s *Simulator) refineRunning() {
	p := s.pred
	if !p.refinementOn() {
		return
	}
	prefixDur := float64(p.pol.PrefixSamples) * p.pol.PrefixIntervalSec
	for _, idx := range p.runningGPU {
		if p.refined[idx] {
			continue
		}
		sp := &s.specs[idx]
		res := s.results[sp.ID]
		if s.now-res.StartSec < prefixDur {
			continue // prefix not fully observed yet
		}
		p.refined[idx] = true
		if len(sp.Profiles) == 0 {
			continue
		}
		cat, ok := p.cls.Classify(p.features(sp))
		if !ok {
			continue // classifier still cold
		}
		if est, ok := p.fc.PredictClass(cat, sp.LimitSec); ok {
			p.estSec[idx] = est
		}
	}
}

// shadowTime projects the earliest instant at which need GPUs are free,
// given the running jobs' current estimates. A job that has overrun its
// estimate is re-projected at its requested limit (mispredict safety); past
// even the limit it is projected to release "now", which keeps the shadow at
// s.now and so admits nothing — the conservative degenerate. Down capacity
// that never returns yields +Inf (no admission).
func (s *Simulator) shadowTime(need int) float64 {
	p := s.pred
	free := s.cfg.Cluster.TotalGPUs() - s.busyGPUs - s.downGPUs
	if free >= need {
		// The reservation is blocked by fragmentation, not by device count;
		// no projected release helps, and now+est <= now never admits.
		return s.now
	}
	p.ends = p.ends[:0]
	for _, idx := range p.runningGPU {
		sp := &s.specs[idx]
		res := s.results[sp.ID]
		end := res.StartSec + p.estSec[idx]
		if end <= s.now {
			end = res.StartSec + sp.LimitSec
			if end <= s.now {
				end = s.now
			}
		}
		p.ends = append(p.ends, runningEnd{endSec: end, idx: idx, gpus: int32(len(res.GPUs))})
	}
	sort.Slice(p.ends, func(a, b int) bool {
		if p.ends[a].endSec != p.ends[b].endSec {
			return p.ends[a].endSec < p.ends[b].endSec
		}
		return p.ends[a].idx < p.ends[b].idx
	})
	for _, re := range p.ends {
		free += int(re.gpus)
		if free >= need {
			return re.endSec
		}
	}
	return math.Inf(1)
}

// predictiveAdmit decides whether a GPU candidate may backfill past an armed
// reservation: only while the reserved job is inside the starvation brake
// (waited less than 2×ReservationAgeSec), and only when the candidate's
// predicted completion lands at or before the reservation's shadow time. The
// shadow is computed once per scheduling pass: a candidate admitted under it
// returns its GPUs before the shadow instant, so the projection stays valid
// for the rest of the pass.
func (s *Simulator) predictiveAdmit(sp *workload.JobSpec, reservedIdx int, shadow *float64, shadowValid *bool) bool {
	rsp := &s.specs[reservedIdx]
	if s.now-rsp.SubmitSec >= 2*s.cfg.Policy.ReservationAgeSec {
		return false // starvation brake: restore the conservative fence
	}
	if !*shadowValid {
		s.refineRunning()
		*shadow = s.shadowTime(requestFor(s.cfg, rsp).GPUs)
		*shadowValid = true
	}
	return s.now+s.pred.estimate(sp) <= *shadow
}
