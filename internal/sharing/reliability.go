package sharing

import (
	"fmt"
	"math"

	"repro/internal/lifecycle"
	"repro/internal/trace"
)

// The paper's §VIII vendor recommendation: "it might be economical for
// vendors to produce high performance, but potentially less resilience and
// error correction support, at a lower production cost and market price."
// ReliabilityStudy evaluates that fleet: exploratory/development/IDE jobs
// move to cheaper GPUs with a finite MTBF; failures cost lost work, and the
// checkpoint planner (§VI) is the remedy that makes the economics close.

// ReliabilityPlan describes the cheap-but-flaky tier.
type ReliabilityPlan struct {
	// Tiering routes categories and sets the device specs/headroom.
	Tiering TierPlan
	// SlowTierMTBFHours is the cheap device's mean time between job-killing
	// errors (ECC-less memory, weaker screening).
	SlowTierMTBFHours float64
	// PriceDiscount is the additional discount for the reduced-reliability
	// part, applied on top of the slow device's list price.
	PriceDiscount float64
	// Checkpoint, when non-nil, protects slow-tier jobs.
	Checkpoint *CheckpointConfig
}

// DefaultReliabilityPlan routes the non-mature categories onto discounted
// low-reliability devices with a 500-hour MTBF, checkpointed.
func DefaultReliabilityPlan() ReliabilityPlan {
	ck := DefaultCheckpointConfig()
	return ReliabilityPlan{
		Tiering:           DefaultTierPlan(),
		SlowTierMTBFHours: 500,
		PriceDiscount:     0.25,
		Checkpoint:        &ck,
	}
}

// ReliabilityResult is the study outcome.
type ReliabilityResult struct {
	// CapexUSD for the two-tier fleet with the discounted flaky devices.
	CapexUSD float64
	// BaselineCapexUSD is the all-reliable single-tier fleet.
	BaselineCapexUSD float64
	// ExpectedFailures over the trace window on the flaky tier.
	ExpectedFailures float64
	// LostGPUHours is the expected work destroyed by flaky-tier failures —
	// without checkpointing, half a run per failure in expectation; with
	// checkpointing, half a checkpoint interval plus restart.
	LostGPUHours float64
	// LostGPUHoursNoCkpt is the counterfactual without checkpointing.
	LostGPUHoursNoCkpt float64
	// NetSavingsUSD = capex saved − lost work valued at the reliable tier's
	// effective hourly cost.
	NetSavingsUSD float64
	// Worthwhile reports whether the discounted fleet wins.
	Worthwhile bool
}

// ReliabilityStudy prices the §VIII reduced-reliability fleet over a
// dataset.
func ReliabilityStudy(ds *trace.Dataset, plan ReliabilityPlan) (ReliabilityResult, error) {
	if plan.SlowTierMTBFHours <= 0 {
		return ReliabilityResult{}, fmt.Errorf("sharing: non-positive MTBF")
	}
	if plan.PriceDiscount < 0 || plan.PriceDiscount >= 1 {
		return ReliabilityResult{}, fmt.Errorf("sharing: discount %v out of [0,1)", plan.PriceDiscount)
	}
	base, err := TwoTierStudy(ds, plan.Tiering)
	if err != nil {
		return ReliabilityResult{}, err
	}
	var res ReliabilityResult
	res.BaselineCapexUSD = base.SingleTier.CapexUSD
	// Re-price the slow tier with the reliability discount.
	slowUnit := plan.Tiering.Slow.PriceUSD * (1 - plan.PriceDiscount)
	res.CapexUSD = float64(base.TwoTier.FastGPUs)*plan.Tiering.Fast.PriceUSD +
		float64(base.TwoTier.SlowGPUs)*slowUnit

	// Failure exposure: every slow-tier GPU hour draws failures at 1/MTBF.
	slowSet := map[trace.Category]bool{}
	for _, c := range plan.Tiering.SlowTierCategories {
		slowSet[c] = true
	}
	var lost, lostNoCkpt float64
	var interval float64
	if plan.Checkpoint != nil {
		// Young–Daly against the failure process, not the run length.
		interval = OptimalInterval(plan.Checkpoint.OverheadSec, plan.SlowTierMTBFHours*3600)
	}
	for _, j := range ds.Columns().GPU {
		if !slowSet[lifecycle.Classify(j)] {
			continue
		}
		dilated := j.GPUHours() * slowdownOn(j, plan.Tiering.Fast, plan.Tiering.Slow)
		failures := dilated / plan.SlowTierMTBFHours
		res.ExpectedFailures += failures
		// Without checkpointing a failure destroys half the run so far in
		// expectation (bounded by the job itself).
		perFailureLossH := dilated / 2
		lostNoCkpt += failures * perFailureLossH
		if plan.Checkpoint != nil {
			residualH := math.Min(dilated, (interval/2+plan.Checkpoint.RestartSec)/3600)
			ckptsPerRun := dilated * 3600 / interval
			overheadH := ckptsPerRun * plan.Checkpoint.OverheadSec / 3600
			lost += failures*residualH + overheadH
		} else {
			lost += failures * perFailureLossH
		}
	}
	res.LostGPUHours = lost
	res.LostGPUHoursNoCkpt = lostNoCkpt

	// Value lost hours at the reliable tier's effective cost per GPU hour
	// over the window.
	windowHours := ds.DurationDays * 24
	if windowHours <= 0 {
		return res, fmt.Errorf("sharing: dataset has no observation window")
	}
	hourlyCost := plan.Tiering.Fast.PriceUSD / (windowHours * plan.Tiering.UtilizationHeadroom)
	res.NetSavingsUSD = (res.BaselineCapexUSD - res.CapexUSD) - res.LostGPUHours*hourlyCost
	res.Worthwhile = res.NetSavingsUSD > 0
	return res, nil
}
