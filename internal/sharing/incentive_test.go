package sharing

import (
	"testing"

	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func TestIncentiveStudySelfFunding(t *testing.T) {
	specs, _ := population(t)
	res, err := IncentiveStudy(specs, DefaultIncentiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Participants == 0 {
		t.Fatal("nobody participated")
	}
	if res.SavedGPUHours <= 0 {
		t.Fatalf("saved hours = %v", res.SavedGPUHours)
	}
	// The mechanism must be self-funding at unit exchange rates: the
	// interference users absorb is far smaller than the hours saved (that
	// asymmetry is exactly why the paper recommends the incentive).
	if !res.Solvent {
		t.Fatalf("mechanism insolvent: pool %v < coupons %v", res.CouponPool, res.TotalCoupons)
	}
	// Ledger is sorted descending by coupons.
	for i := 1; i < len(res.Ledger); i++ {
		if res.Ledger[i].CouponsEarned > res.Ledger[i-1].CouponsEarned {
			t.Fatal("ledger not sorted")
		}
	}
	// Coupons track absorbed slowdown hours at the configured rate.
	for _, e := range res.Ledger {
		if e.CouponsEarned < 0 || e.SlowdownHours < 0 || e.JobsShared == 0 {
			t.Fatalf("bad ledger entry: %+v", e)
		}
	}
	t.Logf("incentive: %d users, %.0f GPUh saved, %.1f coupons granted (pool %.0f)",
		res.Participants, res.SavedGPUHours, res.TotalCoupons, res.CouponPool)
}

func TestIncentiveValidation(t *testing.T) {
	bad := DefaultIncentiveConfig()
	bad.CouponPerSlowdownHour = 0
	if _, err := IncentiveStudy(nil, bad); err == nil {
		t.Fatal("zero coupon rate accepted")
	}
}

func TestReliabilityStudy(t *testing.T) {
	_, ds := population(t)
	plan := DefaultReliabilityPlan()
	res, err := ReliabilityStudy(ds, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapexUSD >= res.BaselineCapexUSD {
		t.Fatalf("discounted fleet not cheaper: %v vs %v", res.CapexUSD, res.BaselineCapexUSD)
	}
	if res.ExpectedFailures <= 0 {
		t.Fatal("no failure exposure on a finite-MTBF tier")
	}
	// Checkpointing must beat the unprotected counterfactual.
	if res.LostGPUHours >= res.LostGPUHoursNoCkpt {
		t.Fatalf("checkpointing did not reduce losses: %v vs %v",
			res.LostGPUHours, res.LostGPUHoursNoCkpt)
	}
	t.Logf("reliability fleet: capex %.0f -> %.0f, %.1f expected failures, lost %.1f GPUh (vs %.1f unprotected), net %.0f USD",
		res.BaselineCapexUSD, res.CapexUSD, res.ExpectedFailures,
		res.LostGPUHours, res.LostGPUHoursNoCkpt, res.NetSavingsUSD)

	// Without checkpointing the same plan loses more work.
	unprotected := plan
	unprotected.Checkpoint = nil
	res2, err := ReliabilityStudy(ds, unprotected)
	if err != nil {
		t.Fatal(err)
	}
	if res2.NetSavingsUSD > res.NetSavingsUSD {
		t.Fatalf("unprotected plan nets more: %v vs %v", res2.NetSavingsUSD, res.NetSavingsUSD)
	}
}

func TestReliabilityValidation(t *testing.T) {
	_, ds := population(t)
	bad := DefaultReliabilityPlan()
	bad.SlowTierMTBFHours = 0
	if _, err := ReliabilityStudy(ds, bad); err == nil {
		t.Fatal("zero MTBF accepted")
	}
	bad = DefaultReliabilityPlan()
	bad.PriceDiscount = 1
	if _, err := ReliabilityStudy(ds, bad); err == nil {
		t.Fatal("full discount accepted")
	}
	if _, err := ReliabilityStudy(trace.NewDataset(1), DefaultReliabilityPlan()); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestSlowTierBusyFrac(t *testing.T) {
	_, ds := population(t)
	f := slowTierBusyFrac(ds, DefaultTierPlan())
	// Non-mature categories are the low-utilization ones.
	if f < 0 || f > 0.3 {
		t.Fatalf("slow-tier busy fraction = %v", f)
	}
}

// slowTierBusyFrac is the mean SM busy fraction of the routed categories.
func slowTierBusyFrac(ds *trace.Dataset, plan TierPlan) float64 {
	slowSet := map[trace.Category]bool{}
	for _, c := range plan.SlowTierCategories {
		slowSet[c] = true
	}
	var sum, n float64
	for _, j := range ds.Columns().GPU {
		if slowSet[lifecycle.Classify(j)] {
			sum += j.GPU[metrics.SMUtil].Mean / 100
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
