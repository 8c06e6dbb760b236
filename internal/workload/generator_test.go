package workload

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// genTestDataset builds one moderately sized population shared by the
// calibration tests (generation dominates test time).
func genTestDataset(t *testing.T) (*Generator, []JobSpec, *trace.Dataset) {
	t.Helper()
	cfg := ScaledConfig(0.15)
	cfg.Seed = 7
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := g.GenerateSpecs()
	return g, specs, g.BuildDataset(specs)
}

var calibCache struct {
	g     *Generator
	specs []JobSpec
	ds    *trace.Dataset
}

func calibDataset(t *testing.T) (*Generator, []JobSpec, *trace.Dataset) {
	t.Helper()
	if calibCache.ds == nil {
		calibCache.g, calibCache.specs, calibCache.ds = genTestDataset(t)
	}
	return calibCache.g, calibCache.specs, calibCache.ds
}

// meanValues extracts one metric's per-job mean across jobs.
func meanValues(jobs []*trace.JobRecord, m metrics.Metric) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.GPU[m].Mean
	}
	return out
}

// runMinutes extracts run times in minutes.
func runMinutes(jobs []*trace.JobRecord) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.RunSec / 60
	}
	return out
}

func inBand(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	t.Logf("%-38s %10.3f   band [%g, %g]", name, got, lo, hi)
	if math.IsNaN(got) || got < lo || got > hi {
		t.Errorf("%s = %v outside calibration band [%v, %v]", name, got, lo, hi)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := ScaledConfig(0.01)
	cfg.Seed = 42
	g1, _ := NewGenerator(cfg)
	g2, _ := NewGenerator(cfg)
	s1, s2 := g1.GenerateSpecs(), g2.GenerateSpecs()
	if len(s1) != len(s2) {
		t.Fatalf("lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].SubmitSec != s2[i].SubmitSec || s1[i].RunSec != s2[i].RunSec ||
			s1[i].User != s2[i].User || s1[i].NumGPUs != s2[i].NumGPUs {
			t.Fatalf("spec %d differs", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Users = 0
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("zero users accepted")
	}
	bad = DefaultConfig()
	bad.Calib.CasualJobsHigh = 0
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("bad calibration accepted")
	}
	bad = DefaultConfig()
	bad.PowerModel = nil
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("nil power model accepted")
	}
}

func TestSpecsAreOrderedAndComplete(t *testing.T) {
	_, specs, ds := calibDataset(t)
	for i := 1; i < len(specs); i++ {
		if specs[i].SubmitSec < specs[i-1].SubmitSec {
			t.Fatal("specs not sorted by submit time")
		}
		if specs[i].ID != int64(i+1) {
			t.Fatal("ids not sequential")
		}
	}
	for i := range specs {
		s := &specs[i]
		if s.IsGPU() && len(s.Profiles) != s.NumGPUs {
			t.Fatalf("job %d: %d profiles for %d GPUs", s.ID, len(s.Profiles), s.NumGPUs)
		}
		if s.RunSec <= 0 || s.LimitSec <= 0 {
			t.Fatalf("job %d: non-positive durations", s.ID)
		}
		if s.RunSec > s.LimitSec+1e-9 {
			t.Fatalf("job %d: run %v exceeds limit %v", s.ID, s.RunSec, s.LimitSec)
		}
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
}

// --- Calibration bands: population structure (§II, §IV) ---

func TestCalibrationPopulation(t *testing.T) {
	g, _, ds := calibDataset(t)
	gpuJobs := ds.GPUJobs()
	frac := float64(len(gpuJobs)) / float64(len(ds.Jobs))
	inBand(t, "GPU-job fraction (analyzed)", frac, 0.5, 0.72)

	// Pareto concentration of submissions across users (§IV).
	counts := map[int]float64{}
	for i := range ds.Jobs {
		counts[ds.Jobs[i].User]++
	}
	var perUser []float64
	for _, n := range counts {
		perUser = append(perUser, n)
	}
	conc := stats.NewConcentration(perUser)
	inBand(t, "top-5% user job share", conc.TopShare(0.05), 0.30, 0.58)
	inBand(t, "top-20% user job share", conc.TopShare(0.20), 0.70, 0.92)
	inBand(t, "median user job count", stats.Median(perUser), 15, 110)
	if len(g.users) != g.cfg.Users {
		t.Fatalf("user count = %d", len(g.users))
	}
}

// --- Calibration bands: run times and waits (Fig. 3) ---

func TestCalibrationRuntimes(t *testing.T) {
	_, _, ds := calibDataset(t)
	gpuRun := runMinutes(ds.GPUJobs())
	q := stats.Quantiles(gpuRun, 0.25, 0.5, 0.75)
	inBand(t, "GPU run p25 (min)", q[0], 2, 10)
	inBand(t, "GPU run median (min)", q[1], 18, 45)
	inBand(t, "GPU run p75 (min)", q[2], 110, 450)

	cpuRun := runMinutes(ds.CPUJobs())
	inBand(t, "CPU run median (min)", stats.Median(cpuRun), 5, 13)
}

func TestCalibrationWaits(t *testing.T) {
	_, _, ds := calibDataset(t)
	var gpuWaitUnderMin, cpuWaitOverMin float64
	var gpuWaitFracUnder2 float64
	gpuJobs, cpuJobs := ds.GPUJobs(), ds.CPUJobs()
	for _, j := range gpuJobs {
		if j.WaitSec < 60 {
			gpuWaitUnderMin++
		}
		if j.WaitFraction() < 2 {
			gpuWaitFracUnder2++
		}
	}
	for _, j := range cpuJobs {
		if j.WaitSec > 60 {
			cpuWaitOverMin++
		}
	}
	inBand(t, "GPU jobs waiting <1min", gpuWaitUnderMin/float64(len(gpuJobs)), 0.60, 0.80)
	inBand(t, "GPU jobs wait <2% of service", gpuWaitFracUnder2/float64(len(gpuJobs)), 0.45, 0.75)
	inBand(t, "CPU jobs waiting >1min", cpuWaitOverMin/float64(len(cpuJobs)), 0.60, 0.82)
}

// --- Calibration bands: utilization marginals (Fig. 4) ---

func TestCalibrationUtilization(t *testing.T) {
	_, _, ds := calibDataset(t)
	jobs := ds.GPUJobs()
	sm := meanValues(jobs, metrics.SMUtil)
	mem := meanValues(jobs, metrics.MemUtil)
	msz := meanValues(jobs, metrics.MemSize)

	inBand(t, "SM util median", stats.Median(sm), 10, 22)
	inBand(t, "mem util median", stats.Median(mem), 0.5, 5)
	inBand(t, "mem size median", stats.Median(msz), 5, 14)
	inBand(t, "jobs >50% SM", stats.FractionAbove(sm, 50), 0.12, 0.28)
	inBand(t, "jobs >50% mem", stats.FractionAbove(mem, 50), 0.0, 0.08)
	inBand(t, "jobs >50% mem size", stats.FractionAbove(msz, 50), 0.08, 0.22)
}

// --- Calibration bands: GPU counts and multi-GPU structure (Fig. 13, §V) ---

func TestCalibrationGPUCounts(t *testing.T) {
	_, _, ds := calibDataset(t)
	jobs := ds.GPUJobs()
	var single, over2, over8 float64
	var totalHours, multiHours float64
	for _, j := range jobs {
		if j.NumGPUs == 1 {
			single++
		}
		if j.NumGPUs > 2 {
			over2++
		}
		if j.NumGPUs >= 9 {
			over8++
		}
		totalHours += j.GPUHours()
		if j.NumGPUs >= 2 {
			multiHours += j.GPUHours()
		}
	}
	n := float64(len(jobs))
	inBand(t, "single-GPU job fraction", single/n, 0.78, 0.90)
	inBand(t, "jobs >2 GPUs", over2/n, 0.01, 0.05)
	inBand(t, "jobs >=9 GPUs", over8/n, 0.0005, 0.015)
	inBand(t, "multi-GPU share of GPU hours", multiHours/totalHours, 0.35, 0.65)

	// User-level multi-GPU reach (§V).
	maxByUser := map[int]int{}
	for _, j := range jobs {
		if j.NumGPUs > maxByUser[j.User] {
			maxByUser[j.User] = j.NumGPUs
		}
	}
	var anyMulti, ge3, ge9, users float64
	for _, m := range maxByUser {
		users++
		if m >= 2 {
			anyMulti++
		}
		if m >= 3 {
			ge3++
		}
		if m >= 9 {
			ge9++
		}
	}
	inBand(t, "users with >=1 multi-GPU job", anyMulti/users, 0.45, 0.75)
	inBand(t, "users with >=3 GPU jobs", ge3/users, 0.06, 0.22)
	inBand(t, "users with >=9 GPU jobs", ge9/users, 0.02, 0.10)
}

// --- Calibration bands: life-cycle mix (Fig. 15) ---

func TestCalibrationLifecycle(t *testing.T) {
	_, specs, _ := calibDataset(t)
	var counts [trace.NumCategories]float64
	var hours [trace.NumCategories]float64
	var n, totalHours float64
	for i := range specs {
		s := &specs[i]
		if !s.IsGPU() || s.RunSec < trace.MinGPUJobRunSec {
			continue
		}
		n++
		counts[s.Category]++
		h := float64(s.NumGPUs) * s.RunSec / 3600
		hours[s.Category] += h
		totalHours += h
	}
	inBand(t, "mature job share", counts[trace.Mature]/n, 0.50, 0.70)
	inBand(t, "exploratory job share", counts[trace.Exploratory]/n, 0.12, 0.25)
	inBand(t, "development job share", counts[trace.Development]/n, 0.12, 0.26)
	inBand(t, "IDE job share", counts[trace.IDE]/n, 0.02, 0.06)

	inBand(t, "mature GPU-hour share", hours[trace.Mature]/totalHours, 0.28, 0.52)
	inBand(t, "exploratory GPU-hour share", hours[trace.Exploratory]/totalHours, 0.22, 0.45)
	inBand(t, "development GPU-hour share", hours[trace.Development]/totalHours, 0.04, 0.16)
	inBand(t, "IDE GPU-hour share", hours[trace.IDE]/totalHours, 0.10, 0.28)
}

// --- Calibration bands: power (Fig. 9a) ---

func TestCalibrationPower(t *testing.T) {
	_, _, ds := calibDataset(t)
	jobs := ds.GPUJobs()
	avg := meanValues(jobs, metrics.Power)
	max := trace.MaxValues(jobs, metrics.Power)
	inBand(t, "median avg power (W)", stats.Median(avg), 32, 62)
	inBand(t, "median max power (W)", stats.Median(max), 60, 120)
	// Fig. 9b at 150 W: >60 % of jobs wholly unimpacted.
	var unimpacted float64
	for i, a := range avg {
		if max[i] <= 150 && a <= 150 {
			unimpacted++
		}
	}
	inBand(t, "jobs unimpacted by 150W cap", unimpacted/float64(len(jobs)), 0.5, 0.85)
}

// --- Calibration bands: per-user behavior (Figs. 10–12) ---

func TestCalibrationUserBehavior(t *testing.T) {
	// User-level statistics (especially rank correlations) need the full
	// 191-user population to be properly powered; the shared 0.15-scale
	// dataset has only ~29 users, where Spearman's standard error alone is
	// ~0.19. Generate a dedicated population: all users, scaled job count.
	cfg := DefaultConfig()
	cfg.TotalJobs = cfg.TotalJobs / 5
	cfg.TimeSeriesJobs = 0
	cfg.Seed = 7
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.BuildDataset(g.GenerateSpecs())
	byUser := ds.ByUser()
	var avgRun, covRun, avgSM, covSM, jobCounts, gpuHours []float64
	for _, jobs := range byUser {
		if len(jobs) < 2 {
			continue
		}
		var runs, sms []float64
		var hours float64
		for _, j := range jobs {
			runs = append(runs, j.RunSec/60)
			sms = append(sms, j.GPU[metrics.SMUtil].Mean)
			hours += j.GPUHours()
		}
		avgRun = append(avgRun, stats.Mean(runs))
		covRun = append(covRun, stats.CoV(runs))
		avgSM = append(avgSM, stats.Mean(sms))
		cs := stats.CoV(sms)
		if !math.IsNaN(cs) {
			covSM = append(covSM, cs)
		}
		jobCounts = append(jobCounts, float64(len(jobs)))
		gpuHours = append(gpuHours, hours)
	}
	inBand(t, "median user avg run (min)", stats.Median(avgRun), 150, 700)
	inBand(t, "median user run CoV (%)", stats.Median(covRun), 100, 230)
	inBand(t, "median user avg SM (%)", stats.Median(avgSM), 5, 19)
	inBand(t, "median user SM CoV (%)", stats.Median(covSM), 70, 180)

	// Fig. 12: activity correlates with utilization but not with its CoV.
	r1 := stats.Spearman(jobCounts, avgSM)
	inBand(t, "Spearman(jobs, avg SM)", r1.Rho, 0.35, 0.95)
	if r1.PValue >= 0.05 {
		t.Errorf("Spearman(jobs, avg SM) p = %v, want < 0.05", r1.PValue)
	}
	r2 := stats.Spearman(gpuHours, avgSM)
	inBand(t, "Spearman(hours, avg SM)", r2.Rho, 0.25, 0.95)
	r3 := stats.Spearman(jobCounts, covSM)
	inBand(t, "Spearman(jobs, CoV SM)", math.Abs(r3.Rho), 0, 0.5)
}

// --- Calibration bands: phases (Fig. 6) via the time-series subset ---

func TestCalibrationSeriesSubset(t *testing.T) {
	_, _, ds := calibDataset(t)
	if len(ds.Series) == 0 {
		t.Fatal("no time series attached")
	}
	var activeFracs []float64
	for id, ts := range ds.Series {
		if len(ts.PerGPU) == 0 || len(ts.PerGPU[0]) == 0 {
			t.Fatalf("series %d empty", id)
		}
		active := 0
		stream := ts.PerGPU[0]
		for _, s := range stream {
			if s.Values[metrics.SMUtil] > 1 || s.Values[metrics.MemUtil] > 1 {
				active++
			}
		}
		activeFracs = append(activeFracs, float64(active)/float64(len(stream))*100)
	}
	q := stats.Quantiles(activeFracs, 0.25, 0.5, 0.75)
	inBand(t, "active time p25 (%)", q[0], 5, 30)
	inBand(t, "active time median (%)", q[1], 65, 95)
	inBand(t, "active time p75 (%)", q[2], 85, 100)
}

func TestArrivalProcess(t *testing.T) {
	c := DefaultCalibration()
	a := NewArrivalProcess(c, 125)
	if d := a.Density(-1); d != 0 {
		t.Fatal("density outside window not zero")
	}
	// Surge window elevates density relative to the same weekday phase
	// outside any window (day 40 is in the [35,45) window before deadline 45;
	// day 31 is the same weekday phase, 14 days earlier).
	surge, base := a.Density(40.3), a.Density(26.3)
	if surge <= base {
		t.Fatalf("deadline surge not visible: %v <= %v", surge, base)
	}
	// Weekends are lighter: day offsets 5.3 vs 1.3 within the first week.
	if we, wd := a.Density(5.3), a.Density(1.3); we >= wd {
		t.Fatalf("weekend density %v >= weekday %v", we, wd)
	}
}

func TestSessionStructuredArrivals(t *testing.T) {
	// Within-user inter-submission gaps must be bimodal: many short
	// within-session gaps plus long between-session gaps — unlike an
	// i.i.d.-over-125-days process where gaps for a median user are hours.
	_, specs, _ := calibDataset(t)
	byUser := map[int][]float64{}
	for i := range specs {
		byUser[specs[i].User] = append(byUser[specs[i].User], specs[i].SubmitSec)
	}
	var short, total float64
	for _, times := range byUser {
		if len(times) < 10 {
			continue
		}
		sorted := append([]float64(nil), times...)
		sortFloat64s(sorted)
		for i := 1; i < len(sorted); i++ {
			gap := sorted[i] - sorted[i-1]
			total++
			if gap < 3600 {
				short++
			}
		}
	}
	if total == 0 {
		t.Fatal("no gaps measured")
	}
	frac := short / total
	t.Logf("within-hour inter-submission gaps: %.1f%%", frac*100)
	if frac < 0.5 {
		t.Errorf("session structure missing: only %.1f%% of gaps under an hour", frac*100)
	}
	// Submissions still stay inside the observation window.
	for i := range specs {
		if specs[i].SubmitSec < 0 || specs[i].SubmitSec > 125*86400 {
			t.Fatalf("submit time %v outside window", specs[i].SubmitSec)
		}
	}
}

func sortFloat64s(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
