// Package workload synthesizes the Supercloud job population: a 191-user
// community with heavy-tailed activity, four algorithm-development life-cycle
// stages (mature / exploratory / development / IDE), phase-structured GPU
// utilization profiles with irregular active/idle alternation, multi-GPU jobs
// with the idle-GPU pathology, and a submission process with conference-
// deadline surges.
//
// Every marginal the generator produces is calibrated against the paper's
// published statistics; the Calibration struct carries the knobs and
// documents which figure each one serves. The calibration tests in this
// package verify the targets before any experiment consumes generated data.
package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/metrics"
)

// Phase is one homogeneous interval of a GPU's activity during a job: either
// an idle stretch (host-only work: data staging, user think time) or an
// active stretch with a characteristic utilization level. The paper's Fig. 6
// shows jobs alternating irregularly between the two.
type Phase struct {
	// Level is the target utilization during the phase. For idle phases the
	// compute components are zero but MemSizePct persists (frameworks hold
	// their allocations across idle stretches) and PCIe traffic continues
	// (idle GPU phases are when input pipelines stage data).
	Level  gpu.Utilization
	DurSec float64
	Active bool
	// Burst flags mark a saturation spike within the phase (the first
	// burstFraction of the phase runs the flagged metric at 100 %), the
	// mechanism behind the paper's Fig. 7b/8 bottleneck observations.
	SMBurst, TxBurst, RxBurst bool
}

// burstFraction is the share of a bursting phase spent at saturation.
const burstFraction = 0.1

// Profile is the complete utilization trajectory of one GPU over one job:
// an ordered phase list plus a multiplicative noise amplitude applied when
// the profile is sampled. Profiles are immutable after construction.
type Profile struct {
	phases []Phase
	// noisePct is the stddev of additive per-sample Gaussian noise, in
	// percentage points.
	noisePct float64
	// cum[i] is the end time of phase i, for O(log n) time lookup.
	cum []float64
}

// NewProfile builds a profile from phases. Phases with non-positive duration
// are rejected: they would make time lookup ambiguous. The profile keeps
// phases rather than a copy (the generator hands over a freshly synthesized
// slice a GPU, and a copy would only be garbage), so the caller must not
// modify it afterwards.
func NewProfile(phases []Phase, noisePct float64) (*Profile, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: profile needs at least one phase")
	}
	p := &Profile{phases: phases, noisePct: noisePct, cum: make([]float64, 0, len(phases))}
	var t float64
	for i, ph := range p.phases {
		if ph.DurSec <= 0 {
			return nil, fmt.Errorf("workload: phase %d has non-positive duration %v", i, ph.DurSec)
		}
		t += ph.DurSec
		p.cum = append(p.cum, t)
	}
	return p, nil
}

// TotalSec returns the profile's duration.
func (p *Profile) TotalSec() float64 { return p.cum[len(p.cum)-1] }

// ActiveFraction returns the share of time spent in active phases, the
// quantity of Fig. 6a.
func (p *Profile) ActiveFraction() float64 {
	var active float64
	for _, ph := range p.phases {
		if ph.Active {
			active += ph.DurSec
		}
	}
	return active / p.TotalSec()
}

// phaseAt returns the phase covering time t (clamped to the profile span)
// and the offset of t within it.
func (p *Profile) phaseAt(t float64) (Phase, float64) {
	if t < 0 {
		t = 0
	}
	if t >= p.TotalSec() {
		t = p.TotalSec() - 1e-9
	}
	i := sort.SearchFloat64s(p.cum, t)
	if i >= len(p.phases) {
		i = len(p.phases) - 1
	}
	start := 0.0
	if i > 0 {
		start = p.cum[i-1]
	}
	return p.phases[i], t - start
}

// LevelAt returns the noiseless utilization at time t, with burst windows
// applied. This is the deterministic component that both the sampler and the
// analytic summary agree on.
func (p *Profile) LevelAt(t float64) gpu.Utilization {
	ph, off := p.phaseAt(t)
	return ph.levelAt(off)
}

// levelAt returns the phase's noiseless utilization off seconds into it.
func (ph *Phase) levelAt(off float64) gpu.Utilization {
	u := ph.Level
	if !ph.Active {
		u.SMPct, u.MemPct = 0, 0
	}
	if ph.Active && off < ph.DurSec*burstFraction {
		if ph.SMBurst {
			u.SMPct = 100
		}
		if ph.TxBurst {
			u.PCIeTxPct = 100
		}
		if ph.RxBurst {
			u.PCIeRxPct = 100
		}
	}
	return u
}

// SampleTimes fills out[i] with the observed utilization at time ts[i], for
// every i < len(ts): the level plus relative Gaussian sampling noise drawn
// from rng (noisePct is the noise stddev as a percentage of the current
// level, so quiet metrics stay quiet in proportion). Idle phases are observed
// noiselessly for the compute metrics — an idle GPU reads exactly 0 in
// nvidia-smi — which is what makes the paper's phase segmentation of real
// traces possible. out must hold at least len(ts) entries.
//
// Each sample draws from rng in the order SM, Mem, MemSize, PCIeTx, PCIeRx,
// so a batch draws what one call per time would. Times are clamped to the
// profile span as LevelAt clamps them. Ascending times walk the phases with
// a cursor, one binary search a call; a time below its predecessor (or
// after a NaN) searches again.
func (p *Profile) SampleTimes(ts []float64, out []gpu.Utilization, rng *dist.RNG) {
	out = out[:len(ts)]
	total := p.TotalSec()
	last := len(p.phases) - 1
	rel := p.noisePct / 100
	i, prev := 0, 0.0
	for j, t := range ts {
		if t < 0 {
			t = 0
		}
		if t >= total {
			t = total - 1e-9
		}
		if j == 0 || !(t >= prev) {
			i = min(sort.SearchFloat64s(p.cum, t), last)
		}
		for i < last && !(p.cum[i] >= t) {
			i++
		}
		prev = t
		start := 0.0
		if i > 0 {
			start = p.cum[i-1]
		}
		u := p.phases[i].levelAt(t - start)
		if p.noisePct > 0 {
			u.SMPct = jitterPct(u.SMPct, rel, rng)
			u.MemPct = jitterPct(u.MemPct, rel, rng)
			u.MemSizePct = u.MemSizePct * (1 + 0.3*rel*rng.NormFloat64())
			u.PCIeTxPct = jitterPct(u.PCIeTxPct, rel, rng)
			u.PCIeRxPct = jitterPct(u.PCIeRxPct, rel, rng)
		}
		u.Clamp()
		out[j] = u
	}
}

// jitterPct applies relative noise to a level strictly inside (0, 100);
// an idle or saturated level is observed exactly.
func jitterPct(v, rel float64, rng *dist.RNG) float64 {
	if v <= 0 || v >= 100 {
		return v
	}
	return v * (1 + rel*rng.NormFloat64())
}

// Summaries computes the per-metric min/mean/max digest of the profile
// analytically (duration-weighted over phases, bursts included), evaluating
// power through the given model and spec. This is the fast path used when
// generating the 47 k-job dataset without running the sampler.
func (p *Profile) Summaries(spec gpu.Spec, pm gpu.PowerModel) metrics.MetricSummaries {
	var out metrics.MetricSummaries
	total := p.TotalSec()
	first := true
	fold := func(u gpu.Utilization, dur float64) {
		vals := [metrics.NumMetrics]float64{
			metrics.SMUtil:  u.SMPct,
			metrics.MemUtil: u.MemPct,
			metrics.MemSize: u.MemSizePct,
			metrics.PCIeTx:  u.PCIeTxPct,
			metrics.PCIeRx:  u.PCIeRxPct,
			metrics.Power:   pm.Watts(spec, u),
		}
		for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
			v := vals[m]
			if first {
				out[m].Min, out[m].Max = v, v
			}
			if v < out[m].Min {
				out[m].Min = v
			}
			if v > out[m].Max {
				out[m].Max = v
			}
			out[m].Mean += v * dur / total
		}
		first = false
	}
	for _, ph := range p.phases {
		base := ph.Level
		if !ph.Active {
			base.SMPct, base.MemPct = 0, 0
			fold(base, ph.DurSec)
			continue
		}
		if ph.SMBurst || ph.TxBurst || ph.RxBurst {
			burst := base
			if ph.SMBurst {
				burst.SMPct = 100
			}
			if ph.TxBurst {
				burst.PCIeTxPct = 100
			}
			if ph.RxBurst {
				burst.PCIeRxPct = 100
			}
			fold(burst, ph.DurSec*burstFraction)
			fold(base, ph.DurSec*(1-burstFraction))
			continue
		}
		fold(base, ph.DurSec)
	}
	return out
}

// IdleProfile returns a profile that never uses the GPU, holding only the
// given memory allocation — the shape of the idle GPUs the paper finds in
// 40 % of multi-GPU jobs (Fig. 14).
func IdleProfile(durSec, memSizePct float64) *Profile {
	p, err := NewProfile([]Phase{{
		DurSec: durSec,
		Active: false,
		Level:  gpu.Utilization{MemSizePct: memSizePct},
	}}, 0)
	if err != nil {
		// A single positive-duration phase cannot fail to validate.
		panic(err)
	}
	return p
}

// PhaseParams controls SynthesizePhases.
type PhaseParams struct {
	DurSec      float64         // total profile duration
	ActiveFrac  float64         // target active-time share (Fig. 6a)
	Level       gpu.Utilization // characteristic active-phase level
	MeanCycles  float64         // expected number of active/idle cycles
	SigmaActive float64         // log-sigma of active interval lengths (Fig. 6b CoV)
	SigmaIdle   float64         // log-sigma of idle interval lengths
	LevelJitter float64         // per-phase multiplicative level jitter (log-sigma), Fig. 7a
	SMBurst     bool            // job saturates SM at some point (Fig. 7b/8)
	TxBurst     bool
	RxBurst     bool
}

// SynthesizePhases builds an irregular phase alternation realizing the
// requested active fraction exactly, with interval lengths drawn lognormally
// (their CoV is governed by the sigma parameters) and per-phase level jitter.
// The bursts, when requested, are attached to randomly chosen active phases.
func SynthesizePhases(p PhaseParams, rng *dist.RNG) []Phase {
	if p.DurSec <= 0 {
		return nil
	}
	af := p.ActiveFrac
	if af < 0 {
		af = 0
	}
	if af > 1 {
		af = 1
	}
	cycles := int(p.MeanCycles + 0.5)
	if cycles < 1 {
		cycles = 1
	}
	activeTotal := af * p.DurSec
	idleTotal := p.DurSec - activeTotal
	// Draw raw interval lengths, then scale each family to its exact budget.
	raw := make([]float64, 2*cycles)
	actRaw, idlRaw := raw[:cycles], raw[cycles:]
	var actSum, idlSum float64
	for i := 0; i < cycles; i++ {
		actRaw[i] = math.Exp(p.SigmaActive * rng.NormFloat64())
		idlRaw[i] = math.Exp(p.SigmaIdle * rng.NormFloat64())
		actSum += actRaw[i]
		idlSum += idlRaw[i]
	}
	// One idle and one active phase a cycle where each family has a budget
	// (a phase's duration underflowing to zero is not seen in practice), so
	// the profile that keeps this slice carries no spare capacity.
	n := 0
	if idleTotal > 0 && idlSum > 0 {
		n += cycles
	}
	if activeTotal > 0 && actSum > 0 {
		n += cycles
	}
	phases := make([]Phase, 0, n)
	// Spread bursts over up to three distinct active phases.
	burstAt := -1
	if p.SMBurst || p.TxBurst || p.RxBurst {
		burstAt = rng.Intn(cycles)
	}
	for i := 0; i < cycles; i++ {
		if idleTotal > 0 && idlSum > 0 {
			if d := idleTotal * idlRaw[i] / idlSum; d > 0 {
				phases = append(phases, Phase{DurSec: d, Active: false,
					Level: gpu.Utilization{
						MemSizePct: p.Level.MemSizePct,
						PCIeTxPct:  p.Level.PCIeTxPct,
						PCIeRxPct:  p.Level.PCIeRxPct,
					}})
			}
		}
		if activeTotal > 0 && actSum > 0 {
			d := activeTotal * actRaw[i] / actSum
			if d <= 0 {
				continue
			}
			lvl := p.Level
			if p.LevelJitter > 0 {
				j := math.Exp(p.LevelJitter * rng.NormFloat64())
				lvl.SMPct *= j
				lvl.MemPct *= j
				jm := math.Exp(p.LevelJitter * 0.6 * rng.NormFloat64())
				lvl.MemSizePct *= jm
				lvl.PCIeTxPct *= math.Exp(p.LevelJitter * rng.NormFloat64())
				lvl.PCIeRxPct *= math.Exp(p.LevelJitter * rng.NormFloat64())
			}
			lvl.Clamp()
			// Jittered levels stay below saturation: only explicit bursts
			// register as Fig. 7b/8 bottlenecks, not clamping artifacts.
			capBelowSaturation(&lvl)
			ph := Phase{DurSec: d, Active: true, Level: lvl}
			if i == burstAt {
				ph.SMBurst, ph.TxBurst, ph.RxBurst = p.SMBurst, p.TxBurst, p.RxBurst
			}
			phases = append(phases, ph)
		}
	}
	if len(phases) == 0 {
		phases = []Phase{{DurSec: p.DurSec, Active: false,
			Level: gpu.Utilization{MemSizePct: p.Level.MemSizePct}}}
	}
	return phases
}

// capBelowSaturation bounds compute and PCIe levels at 97 %: production
// kernels rarely pin the exact ceiling outside genuine saturation bursts.
func capBelowSaturation(u *gpu.Utilization) {
	const cap = 97
	if u.SMPct > cap {
		u.SMPct = cap
	}
	if u.MemPct > cap {
		u.MemPct = cap
	}
	if u.PCIeTxPct > cap {
		u.PCIeTxPct = cap
	}
	if u.PCIeRxPct > cap {
		u.PCIeRxPct = cap
	}
}
