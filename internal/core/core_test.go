package core

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reportCache shares one generated dataset and report across tests.
var reportCache struct {
	ds  *trace.Dataset
	rep *Report
}

func testReport(t *testing.T) (*trace.Dataset, *Report) {
	t.Helper()
	if reportCache.rep == nil {
		cfg := workload.ScaledConfig(0.12)
		cfg.Seed = 7
		g, err := workload.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		specs := g.GenerateSpecs()
		reportCache.ds = g.BuildDataset(specs)
		reportCache.rep = Characterize(reportCache.ds.Columns(), 0)
	}
	return reportCache.ds, reportCache.rep
}

func checkBand(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	t.Logf("%-42s %10.3f   band [%g, %g]", name, got, lo, hi)
	if math.IsNaN(got) || got < lo || got > hi {
		t.Errorf("%s = %v outside [%v, %v]", name, got, lo, hi)
	}
}

func TestFig3aRuntimes(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig3a GPU run median (min)", r.Runtimes.GPU.P50, 18, 45)
	checkBand(t, "Fig3a CPU run median (min)", r.Runtimes.CPU.P50, 5, 13)
	if r.Runtimes.GPU.P50 <= r.Runtimes.CPU.P50 {
		t.Error("Fig3a shape: GPU jobs should run longer than CPU jobs")
	}
	if len(r.Runtimes.GPU.Curve) == 0 {
		t.Error("Fig3a curve empty")
	}
}

func TestFig3bWaits(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig3b GPU wait <1min frac", r.Waits.GPUWaitUnder1MinFrac, 0.6, 0.8)
	checkBand(t, "Fig3b GPU wait <2% of service", r.Waits.GPUWaitPctUnder2Frac, 0.45, 0.75)
	checkBand(t, "Fig3b CPU wait >1min frac", r.Waits.CPUWaitOver1MinFrac, 0.6, 0.85)
	// §V: no size class should wait dramatically longer than single-GPU.
	for c := 1; c < 4; c++ {
		if w := r.Waits.MedianWaitBySize[c]; !math.IsNaN(w) && w > r.Waits.MedianWaitBySize[0]*3+60 {
			t.Errorf("size class %s median wait %v much larger than single-GPU %v",
				SizeClassLabel(c), w, r.Waits.MedianWaitBySize[0])
		}
	}
}

func TestFig4aUtilization(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig4a SM median", r.Utilization.SM.P50, 10, 22)
	checkBand(t, "Fig4a mem median", r.Utilization.Mem.P50, 0.5, 5)
	checkBand(t, "Fig4a memsize median", r.Utilization.MemSize.P50, 5, 14)
	checkBand(t, "Fig4a SM >50%", r.Utilization.SMOver50, 0.12, 0.28)
	checkBand(t, "Fig4a mem >50%", r.Utilization.MemOver50, 0, 0.08)
	checkBand(t, "Fig4a near-zero SM", r.Utilization.NearZeroSMFrac, 0.2, 0.45)
	// Ordering: SM more utilized than memory bandwidth.
	if r.Utilization.SM.P50 <= r.Utilization.Mem.P50 {
		t.Error("Fig4a shape: SM should dominate memory bandwidth")
	}
}

func TestFig4bPCIeUniform(t *testing.T) {
	_, r := testReport(t)
	// "Linearly increasing empirical CDF": small KS distance to uniform.
	checkBand(t, "Fig4b Tx uniform KS", r.PCIe.TxUniformKS, 0, 0.12)
	checkBand(t, "Fig4b Rx uniform KS", r.PCIe.RxUniformKS, 0, 0.12)
}

func TestFig5Interfaces(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig5 map-reduce share", r.ByInterface.Share[trace.MapReduce], 0.002, 0.03)
	checkBand(t, "Fig5 batch share", r.ByInterface.Share[trace.Batch], 0.2, 0.4)
	checkBand(t, "Fig5 interactive share", r.ByInterface.Share[trace.Interactive], 0.02, 0.07)
	checkBand(t, "Fig5 other share", r.ByInterface.Share[trace.Other], 0.55, 0.75)
	// Ordering: other > batch > interactive in median SM.
	if !(r.ByInterface.SM[trace.Other].P50 >= r.ByInterface.SM[trace.Batch].P50 &&
		r.ByInterface.SM[trace.Batch].P50 >= r.ByInterface.SM[trace.Interactive].P50) {
		t.Errorf("Fig5 SM ordering broken: other=%v batch=%v interactive=%v",
			r.ByInterface.SM[trace.Other].P50, r.ByInterface.SM[trace.Batch].P50,
			r.ByInterface.SM[trace.Interactive].P50)
	}
}

func TestFig6Phases(t *testing.T) {
	_, r := testReport(t)
	if r.Phases.JobsAnalyzed < 100 {
		t.Fatalf("phase analysis covered %d jobs", r.Phases.JobsAnalyzed)
	}
	checkBand(t, "Fig6a active time median (%)", r.Phases.ActiveTimePct.P50, 65, 95)
	checkBand(t, "Fig6a active time p25 (%)", r.Phases.ActiveTimePct.P25, 5, 35)
	checkBand(t, "Fig6a active time p75 (%)", r.Phases.ActiveTimePct.P75, 85, 100)
	checkBand(t, "Fig6b idle CoV median (%)", r.Phases.IdleCoV.P50, 70, 190)
	checkBand(t, "Fig6b active CoV median (%)", r.Phases.ActiveCoVLen.P50, 90, 240)
}

func TestFig7aActiveVariability(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig7a SM CoV median (%)", r.ActiveCoV.SMCoV.P50, 5, 40)
	checkBand(t, "Fig7a mem CoV median (%)", r.ActiveCoV.MemCoV.P50, 5, 45)
	checkBand(t, "Fig7a memsize CoV median (%)", r.ActiveCoV.MemSizeCoV.P50, 2, 30)
	checkBand(t, "Fig7a SM CoV >23% frac", r.ActiveCoV.Over23Frac, 0.1, 0.6)
}

func TestFig7b8Bottlenecks(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig8a SM bottleneck frac", r.Bottlenecks.SingleFrac[metrics.SMUtil], 0.15, 0.3)
	checkBand(t, "Fig8a mem bottleneck frac", r.Bottlenecks.SingleFrac[metrics.MemUtil], 0, 0.02)
	checkBand(t, "Fig8a PCIe Rx bottleneck frac", r.Bottlenecks.SingleFrac[metrics.PCIeRx], 0.08, 0.25)
	pair := [2]metrics.Metric{metrics.SMUtil, metrics.PCIeRx}
	checkBand(t, "Fig8b SM∧Rx frac", r.Bottlenecks.PairFrac[pair], 0.04, 0.15)
	checkBand(t, "Fig8b any-two frac", r.Bottlenecks.AnyTwoFrac, 0.02, 0.2)
}

func TestFig9aPower(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig9a avg power median (W)", r.Power.Avg.P50, 32, 62)
	checkBand(t, "Fig9a max power median (W)", r.Power.Max.P50, 60, 125)
	if r.Power.Max.P50 <= r.Power.Avg.P50 {
		t.Error("Fig9a shape: max power must exceed average")
	}
	if r.Power.Avg.P50 > r.Power.TDPWatts/3 {
		t.Error("Fig9a shape: median average draw should be under a third of TDP")
	}
}

func TestFig10UserAverages(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig10 user avg run median (min)", r.UserAverages.AvgRunMin.P50, 150, 700)
	checkBand(t, "Fig10 user avg SM median (%)", r.UserAverages.AvgSM.P50, 5, 19)
	checkBand(t, "Fig10 user avg mem median (%)", r.UserAverages.AvgMem.P50, 0.3, 5)
	// Shape: user-level run medians far exceed job-level (Fig. 10 vs 3a).
	if r.UserAverages.AvgRunMin.P50 < r.Runtimes.GPU.P50*2 {
		t.Error("Fig10 shape: user-average run times should dwarf job medians")
	}
}

func TestFig11UserVariability(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig11 run CoV median (%)", r.UserCoV.RunCoV.P50, 100, 230)
	checkBand(t, "Fig11 SM CoV median (%)", r.UserCoV.SMCoV.P50, 70, 180)
	checkBand(t, "Fig11 mem CoV median (%)", r.UserCoV.MemCoV.P50, 80, 260)
}

func TestFig12Trends(t *testing.T) {
	_, r := testReport(t)
	avgSM := r.UserTrends.Get("jobs", "avg_sm")
	checkBand(t, "Fig12 rho(jobs, avg SM)", avgSM.Rho, 0.3, 0.95)
	if avgSM.PValue >= 0.05 {
		t.Errorf("Fig12 rho(jobs, avg SM) p = %v, want significance", avgSM.PValue)
	}
	hoursSM := r.UserTrends.Get("gpu_hours", "avg_sm")
	checkBand(t, "Fig12 rho(hours, avg SM)", hoursSM.Rho, 0.2, 0.95)
	covSM := r.UserTrends.Get("jobs", "cov_sm")
	checkBand(t, "Fig12 |rho(jobs, cov SM)|", math.Abs(covSM.Rho), 0, 0.5)
	if got := r.UserTrends.Get("jobs", "nonexistent"); got.N != 0 {
		t.Error("Get on unknown pair should be zero")
	}
}

func TestFig13GPUCounts(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig13 single-GPU frac", r.GPUCounts.SingleGPUFrac, 0.78, 0.9)
	checkBand(t, "Fig13 multi-GPU frac", r.GPUCounts.MultiGPUFrac, 0.1, 0.22)
	checkBand(t, "Fig13 >2 GPU frac", r.GPUCounts.Over2Frac, 0.01, 0.05)
	checkBand(t, "Fig13 multi hour share", r.GPUCounts.MultiGPUHourShare, 0.35, 0.65)
	var sum float64
	for _, f := range r.GPUCounts.FracByCount {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Fig13 count fractions sum to %v", sum)
	}
}

func TestFig14MultiGPU(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig14 half-idle multi-GPU frac", r.MultiGPU.HalfIdleJobFrac, 0.3, 0.5)
	// Removing idle GPUs collapses the CoV (Fig. 14b vs 14a).
	for mi := range r.MultiGPU.CoVAllGPUs {
		all, act := r.MultiGPU.CoVAllGPUs[mi].P75, r.MultiGPU.CoVActiveGPUs[mi].P75
		if !math.IsNaN(all) && !math.IsNaN(act) && act > all {
			t.Errorf("Fig14 metric %d: active-only CoV p75 %v exceeds all-GPU %v", mi, act, all)
		}
	}
	if r.MultiGPU.CoVActiveGPUs[0].P50 > 20 {
		t.Errorf("Fig14b: active GPUs should be near-uniform, median CoV %v", r.MultiGPU.CoVActiveGPUs[0].P50)
	}
}

func TestFig15_16Lifecycle(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig15a mature job share", r.Lifecycle.JobShare[trace.Mature], 0.5, 0.7)
	checkBand(t, "Fig15a exploratory job share", r.Lifecycle.JobShare[trace.Exploratory], 0.12, 0.25)
	checkBand(t, "Fig15a development job share", r.Lifecycle.JobShare[trace.Development], 0.12, 0.26)
	checkBand(t, "Fig15a IDE job share", r.Lifecycle.JobShare[trace.IDE], 0.02, 0.06)
	checkBand(t, "Fig15b mature hour share", r.Lifecycle.HourShare[trace.Mature], 0.28, 0.52)
	checkBand(t, "Fig15b exploratory hour share", r.Lifecycle.HourShare[trace.Exploratory], 0.22, 0.45)
	checkBand(t, "Fig15b IDE hour share", r.Lifecycle.HourShare[trace.IDE], 0.1, 0.28)
	// §VI medians: exploratory jobs run longer than mature.
	if r.Lifecycle.MedianRunMin[trace.Exploratory] <= r.Lifecycle.MedianRunMin[trace.Mature] {
		t.Error("Fig15 shape: exploratory median run should exceed mature")
	}
	// Fig. 16: development/IDE boxes sit at ~0 SM; mature well above.
	if r.Lifecycle.Boxes[trace.IDE][0].Median > 2 {
		t.Errorf("Fig16: IDE median SM = %v, want ~0", r.Lifecycle.Boxes[trace.IDE][0].Median)
	}
	if r.Lifecycle.Boxes[trace.Mature][0].Median < 10 {
		t.Errorf("Fig16: mature median SM = %v", r.Lifecycle.Boxes[trace.Mature][0].Median)
	}
	var jobSum, hourSum float64
	for c := trace.Category(0); c < trace.NumCategories; c++ {
		jobSum += r.Lifecycle.JobShare[c]
		hourSum += r.Lifecycle.HourShare[c]
	}
	if math.Abs(jobSum-1) > 1e-9 || math.Abs(hourSum-1) > 1e-9 {
		t.Errorf("Fig15 shares do not sum to 1: %v, %v", jobSum, hourSum)
	}
}

func TestFig17UserMix(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "Fig17a users <40% mature jobs", r.UserMix.UsersUnder40PctMatureJobs, 0.3, 0.7)
	checkBand(t, "Fig17b users >60% non-mature hours", r.UserMix.UsersOver60PctNonMatureHours, 0.2, 0.9)
	// Sortedness of the stacked-area x-axis.
	for i := 1; i < len(r.UserMix.ByJobs); i++ {
		if r.UserMix.ByJobs[i].JobFrac[trace.Mature] < r.UserMix.ByJobs[i-1].JobFrac[trace.Mature] {
			t.Fatal("Fig17a rows not sorted by mature share")
		}
	}
	// Each row's fractions sum to 1.
	for _, row := range r.UserMix.ByJobs {
		var sum float64
		for c := trace.Category(0); c < trace.NumCategories; c++ {
			sum += row.JobFrac[c]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("user %d job fractions sum to %v", row.User, sum)
		}
	}
}

func TestHostCPUSupportsColocation(t *testing.T) {
	_, r := testReport(t)
	// §III ordering: GPU jobs are CPU-light, CPU jobs saturate their cores.
	if r.HostCPUUse.GPUJobs.P50 >= r.HostCPUUse.CPUJobs.P50 {
		t.Fatalf("GPU jobs not CPU-light: %v vs %v",
			r.HostCPUUse.GPUJobs.P50, r.HostCPUUse.CPUJobs.P50)
	}
	checkBand(t, "SecIII CPU-job host util median (%)", r.HostCPUUse.CPUJobs.P50, 80, 95)
	if r.HostCPUUse.GPUJobsUnder50Frac < 0.3 {
		t.Errorf("only %v of GPU jobs under 50%% host CPU", r.HostCPUUse.GPUJobsUnder50Frac)
	}
}

func TestConcentrationStats(t *testing.T) {
	_, r := testReport(t)
	checkBand(t, "§IV top-5% share", r.Concentration.Top5PctShare, 0.3, 0.6)
	checkBand(t, "§IV top-20% share", r.Concentration.Top20PctShare, 0.7, 0.92)
	checkBand(t, "§V users with multi-GPU", r.Concentration.UsersWithMultiFrac, 0.45, 0.75)
	checkBand(t, "§V users with >=9 GPUs", r.Concentration.UsersWith9Frac, 0.02, 0.1)
	if r.Concentration.Gini <= 0 || r.Concentration.Gini >= 1 {
		t.Errorf("Gini = %v", r.Concentration.Gini)
	}
	if len(r.Concentration.Lorenz) != r.Concentration.Users {
		t.Error("Lorenz curve length mismatch")
	}
}

func TestSegmentSeries(t *testing.T) {
	mk := func(vals ...float64) *trace.TimeSeries {
		ts := &trace.TimeSeries{JobID: 1, IntervalSec: 2}
		stream := make([]metrics.Sample, len(vals))
		for i, v := range vals {
			stream[i].TimeSec = float64(i) * 2
			stream[i].Values[metrics.SMUtil] = v
		}
		ts.PerGPU = [][]metrics.Sample{stream}
		return ts
	}
	iv := SegmentSeries(mk(0, 0, 50, 50, 50, 0, 40))
	want := []Interval{
		{Active: false, StartSec: 0, DurSec: 4},
		{Active: true, StartSec: 4, DurSec: 6},
		{Active: false, StartSec: 10, DurSec: 2},
		{Active: true, StartSec: 12, DurSec: 2},
	}
	if len(iv) != len(want) {
		t.Fatalf("intervals = %+v", iv)
	}
	for i := range want {
		if iv[i] != want[i] {
			t.Fatalf("interval %d = %+v, want %+v", i, iv[i], want[i])
		}
	}
	if SegmentSeries(nil) != nil {
		t.Fatal("nil series should yield nil")
	}
}

// TestSizeClass pins the label of every §V class trace.SizeClass yields.
func TestSizeClass(t *testing.T) {
	cases := map[int]string{1: "1 GPU", 2: "2 GPUs", 3: "3-8 GPUs", 8: "3-8 GPUs", 9: ">8 GPUs", 32: ">8 GPUs"}
	for g, want := range cases {
		if got := SizeClassLabel(trace.SizeClass(g)); got != want {
			t.Errorf("SizeClassLabel(trace.SizeClass(%d)) = %q, want %q", g, got, want)
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := trace.NewDataset(1)
	rep := Characterize(ds.Columns(), 0)
	if rep.GPUCounts.SingleGPUFrac != 0 {
		t.Error("empty dataset should produce zero fractions")
	}
	if rep.Lifecycle.Total != 0 {
		t.Error("empty dataset lifecycle total")
	}
}
