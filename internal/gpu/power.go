package gpu

import "math"

// PowerModel converts an instantaneous utilization state into board power
// draw for a given device spec. Two implementations exist: the default
// affine model with an idle floor, and a purely linear model kept for the
// ablation bench that shows the floor is required to reproduce the paper's
// Fig. 9a (median average power 45 W on a 300 W part).
type PowerModel interface {
	// Watts returns the instantaneous power draw for spec at utilization u.
	Watts(spec Spec, u Utilization) float64
}

// AffinePowerModel is the default model:
//
//	P = idle + (TDP − idle) × min(1, wSM·sm + wMem·mem + wIO·pcie)^γ
//
// The compute term dominates (deep-learning kernels burn power in the SMs),
// memory traffic contributes, and PCIe adds a small I/O term. γ slightly
// below 1 captures that even moderate SM activity lights up much of the
// board (clock gating is coarse), which is what pushes a 16 %-SM-median
// workload to a 45 W median draw above the 25 W idle floor.
type AffinePowerModel struct {
	WSM, WMem, WIO float64
	Gamma          float64
}

// DefaultPowerModel returns the calibrated affine model. Weights were chosen
// so that the paper's published utilization marginals map onto its published
// power marginals (median average 45 W, median max 87 W; see EXPERIMENTS.md).
func DefaultPowerModel() AffinePowerModel {
	return AffinePowerModel{WSM: 0.75, WMem: 0.30, WIO: 0.03, Gamma: 1.45}
}

// Watts implements PowerModel.
func (m AffinePowerModel) Watts(spec Spec, u Utilization) float64 {
	return m.watts(spec.IdleWatts, spec.TDPWatts-spec.IdleWatts, u)
}

// watts is Watts with the spec reduced to its idle floor and the span from
// there to TDP.
func (m AffinePowerModel) watts(idle, span float64, u Utilization) float64 {
	load := m.WSM*u.SMPct/100 + m.WMem*u.MemPct/100 + m.WIO*(u.PCIeTxPct+u.PCIeRxPct)/200
	if load > 1 {
		load = 1
	}
	if load < 0 {
		load = 0
	}
	gamma := m.Gamma
	if gamma <= 0 {
		gamma = 1
	}
	return idle + span*math.Pow(load, gamma)
}

// Meter is a PowerModel bound to one device spec, for callers that evaluate
// the same spec once a sample: for the affine model the spec's idle floor
// and span are worked out once rather than the spec being passed per call.
// Meter.Watts returns what the model's Watts returns, bit for bit.
type Meter struct {
	pm         PowerModel
	spec       Spec
	affine     AffinePowerModel
	isAffine   bool
	idle, span float64
}

// NewMeter binds pm to spec.
func NewMeter(pm PowerModel, spec Spec) Meter {
	m := Meter{pm: pm, spec: spec, idle: spec.IdleWatts, span: spec.TDPWatts - spec.IdleWatts}
	m.affine, m.isAffine = pm.(AffinePowerModel)
	return m
}

// Watts returns the power draw at utilization u.
func (m *Meter) Watts(u Utilization) float64 {
	if m.isAffine {
		return m.affine.watts(m.idle, m.span, u)
	}
	return m.pm.Watts(m.spec, u)
}

// LinearPowerModel is the ablation alternative: P = TDP × sm/100, no idle
// floor and no memory/IO contribution. It systematically under-predicts
// low-utilization power and is used only to demonstrate the floor's
// necessity (BenchmarkAblationPowerModel).
type LinearPowerModel struct{}

// Watts implements PowerModel.
func (LinearPowerModel) Watts(spec Spec, u Utilization) float64 {
	return spec.TDPWatts * u.SMPct / 100
}

// CapImpact classifies how a job would be affected by a power cap, given its
// power summary. This is the unit of the paper's Fig. 9b analysis.
type CapImpact int

// The three Fig. 9b bands.
const (
	// CapNoImpact: the job's maximum draw never reaches the cap.
	CapNoImpact CapImpact = iota
	// CapImpactsPeak: only the job's peak draw exceeds the cap — it would
	// see brief clock throttling at its bursts.
	CapImpactsPeak
	// CapImpactsAverage: the job's average draw exceeds the cap — it would
	// be throttled persistently.
	CapImpactsAverage
)

// String names the impact band.
func (c CapImpact) String() string {
	switch c {
	case CapNoImpact:
		return "unimpacted"
	case CapImpactsPeak:
		return "peak-impacted"
	case CapImpactsAverage:
		return "average-impacted"
	default:
		return "unknown"
	}
}

// ClassifyCapImpact returns the Fig. 9b band of a job whose average and
// maximum power draw are given, under a cap of capWatts.
func ClassifyCapImpact(avgWatts, maxWatts, capWatts float64) CapImpact {
	switch {
	case avgWatts > capWatts:
		return CapImpactsAverage
	case maxWatts > capWatts:
		return CapImpactsPeak
	default:
		return CapNoImpact
	}
}

// ThrottleSlowdown estimates the run-time dilation factor (>= 1) a job
// suffers under a cap, using the simple energy-conservation argument that
// compute throughput tracks the power head-room above idle. A job whose
// demand never exceeds the cap is unaffected.
func ThrottleSlowdown(spec Spec, demandWatts, capWatts float64) float64 {
	if demandWatts <= capWatts || capWatts <= spec.IdleWatts {
		if capWatts <= spec.IdleWatts && demandWatts > capWatts {
			return math.Inf(1)
		}
		return 1
	}
	return (demandWatts - spec.IdleWatts) / (capWatts - spec.IdleWatts)
}
