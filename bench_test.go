// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (see DESIGN.md's per-experiment index). Each
// benchmark times the analysis that produces one figure and attaches the
// figure's headline statistic as a custom metric, so `go test -bench . \
// -benchmem` doubles as the experiment runner: bench_output.txt carries the
// paper-vs-measured numbers recorded in EXPERIMENTS.md.
package repro

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/sharing"
	"repro/internal/slurm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchScale sizes the shared population: 10 % of the paper (≈7.5 k jobs).
const benchScale = 0.10

var benchData struct {
	once  sync.Once
	specs []workload.JobSpec
	ds    *trace.Dataset
	users []core.UserStats
}

func benchDataset(b *testing.B) ([]workload.JobSpec, *trace.Dataset, []core.UserStats) {
	b.Helper()
	benchData.once.Do(func() {
		cfg := workload.ScaledConfig(benchScale)
		cfg.Seed = 7
		g, err := workload.NewGenerator(cfg)
		if err != nil {
			panic(err)
		}
		benchData.specs = g.GenerateSpecs()
		benchData.ds = g.BuildDataset(benchData.specs)
		benchData.users = core.AggregateUsers(benchData.ds.Columns())
	})
	return benchData.specs, benchData.ds, benchData.users
}

// --- Table I ---

func BenchmarkTableISpecs(b *testing.B) {
	var gpus int
	for i := 0; i < b.N; i++ {
		cfg := cluster.SupercloudConfig()
		gpus = cfg.TotalGPUs()
	}
	b.ReportMetric(float64(gpus), "total-gpus")
}

// --- Fig. 3 ---

func BenchmarkFig3aRuntimes(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.RuntimeResult
	for i := 0; i < b.N; i++ {
		r = core.Runtimes(ds.Columns())
	}
	b.ReportMetric(r.GPU.P50, "gpu-run-median-min(paper:30)")
	b.ReportMetric(r.CPU.P50, "cpu-run-median-min(paper:8)")
}

func BenchmarkFig3bQueueWait(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.WaitResult
	for i := 0; i < b.N; i++ {
		r = core.Waits(ds.Columns())
	}
	b.ReportMetric(r.GPUWaitUnder1MinFrac*100, "gpu-wait-under-1min-pct(paper:70)")
	b.ReportMetric(r.GPUWaitPctUnder2Frac*100, "gpu-wait-under-2pct-service(paper:>50)")
}

// --- Fig. 4 ---

func BenchmarkFig4aUtilization(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.UtilizationResult
	for i := 0; i < b.N; i++ {
		r = core.Utilization(ds.Columns())
	}
	b.ReportMetric(r.SM.P50, "sm-median-pct(paper:16)")
	b.ReportMetric(r.Mem.P50, "mem-median-pct(paper:2)")
	b.ReportMetric(r.MemSize.P50, "memsize-median-pct(paper:9)")
	b.ReportMetric(r.SMOver50*100, "sm-over50-pct(paper:20)")
}

func BenchmarkFig4bPCIe(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.PCIeResult
	for i := 0; i < b.N; i++ {
		r = core.PCIe(ds.Columns())
	}
	b.ReportMetric(r.TxUniformKS, "tx-uniform-ks(paper:~0)")
	b.ReportMetric(r.RxUniformKS, "rx-uniform-ks(paper:~0)")
}

// --- Fig. 5 ---

func BenchmarkFig5ByInterface(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.InterfaceResult
	for i := 0; i < b.N; i++ {
		r = core.ByInterface(ds.Columns())
	}
	b.ReportMetric(r.SM[trace.Other].P50, "other-sm-median")
	b.ReportMetric(r.SM[trace.Interactive].P50, "interactive-sm-median")
}

// --- Fig. 6 ---

func BenchmarkFig6aActiveTime(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.PhaseResult
	for i := 0; i < b.N; i++ {
		r = core.Phases(ds.Columns())
	}
	b.ReportMetric(r.ActiveTimePct.P50, "active-time-median-pct(paper:84)")
	b.ReportMetric(r.ActiveTimePct.P25, "active-time-p25-pct(paper:14)")
}

func BenchmarkFig6bIntervalCoV(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.PhaseResult
	for i := 0; i < b.N; i++ {
		r = core.Phases(ds.Columns())
	}
	b.ReportMetric(r.IdleCoV.P50, "idle-cov-median-pct(paper:126)")
	b.ReportMetric(r.ActiveCoVLen.P50, "active-cov-median-pct(paper:169)")
}

// --- Fig. 7 ---

func BenchmarkFig7aActiveCoV(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.ActiveVariabilityResult
	for i := 0; i < b.N; i++ {
		r = core.ActiveVariability(ds.Columns())
	}
	b.ReportMetric(r.SMCoV.P50, "sm-cov-median-pct(paper:14)")
	b.ReportMetric(r.MemCoV.P50, "mem-cov-median-pct(paper:14.6)")
	b.ReportMetric(r.MemSizeCoV.P50, "memsize-cov-median-pct(paper:8.2)")
}

func BenchmarkFig7bBottleneckRadar(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.BottleneckResult
	for i := 0; i < b.N; i++ {
		r = core.Bottlenecks(ds.Columns())
	}
	b.ReportMetric(r.SingleFrac[metrics.SMUtil]*100, "sm-bottleneck-pct(paper:22)")
	b.ReportMetric(r.SingleFrac[metrics.MemUtil]*100, "mem-bottleneck-pct(paper:~0)")
}

// --- Fig. 8 ---

func BenchmarkFig8aSingleBottleneck(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.BottleneckResult
	for i := 0; i < b.N; i++ {
		r = core.Bottlenecks(ds.Columns())
	}
	b.ReportMetric(r.SingleFrac[metrics.PCIeRx]*100, "rx-bottleneck-pct")
	b.ReportMetric(r.SingleFrac[metrics.PCIeTx]*100, "tx-bottleneck-pct")
}

func BenchmarkFig8bPairBottleneck(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.BottleneckResult
	for i := 0; i < b.N; i++ {
		r = core.Bottlenecks(ds.Columns())
	}
	pair := [2]metrics.Metric{metrics.SMUtil, metrics.PCIeRx}
	b.ReportMetric(r.PairFrac[pair]*100, "sm+rx-pct(paper:~9)")
	b.ReportMetric(r.AnyTwoFrac*100, "any-two-pct(paper:<10)")
}

// --- Fig. 9 ---

func BenchmarkFig9aPower(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.PowerResult
	for i := 0; i < b.N; i++ {
		r = core.Power(ds.Columns())
	}
	b.ReportMetric(r.Avg.P50, "avg-power-median-w(paper:45)")
	b.ReportMetric(r.Max.P50, "max-power-median-w(paper:87)")
}

func BenchmarkFig9bPowerCap(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r sharing.PowerCapResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = sharing.PowerCapStudy(ds, gpu.V100(), 448, []float64{150, 200, 250})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Levels[0].UnimpactedFrac*100, "150w-unimpacted-pct(paper:>60)")
	b.ReportMetric(r.Levels[0].AvgImpactedFrac*100, "150w-avg-impacted-pct(paper:<10)")
}

// BenchmarkExtensionCapComparison runs the power-vs-frequency capping
// extension study (Patki et al., cited by the paper's related work).
func BenchmarkExtensionCapComparison(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var rows []sharing.CapComparison
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = sharing.CompareCapping(ds, gpu.V100(), []float64{150, 200, 250})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].PowerCapMeanSlowdown, "150w-powercap-slowdown")
	b.ReportMetric(rows[0].FreqCapMeanSlowdown, "150w-freqcap-slowdown")
	b.ReportMetric(rows[0].FreqCapImpactedFrac*100, "150w-freqcap-hit-pct")
}

// --- Figs. 10–12 ---

func BenchmarkFig10UserAverages(b *testing.B) {
	_, _, users := benchDataset(b)
	b.ResetTimer()
	var r core.UserAverageResult
	for i := 0; i < b.N; i++ {
		r = core.UserAverages(users)
	}
	b.ReportMetric(r.AvgRunMin.P50, "user-avg-run-median-min(paper:392)")
	b.ReportMetric(r.AvgSM.P50, "user-avg-sm-median-pct(paper:10.75)")
}

func BenchmarkFig11UserCoV(b *testing.B) {
	_, _, users := benchDataset(b)
	b.ResetTimer()
	var r core.UserVariabilityResult
	for i := 0; i < b.N; i++ {
		r = core.UserVariability(users)
	}
	b.ReportMetric(r.RunCoV.P50, "user-run-cov-median-pct(paper:155)")
	b.ReportMetric(r.SMCoV.P50, "user-sm-cov-median-pct(paper:121)")
}

func BenchmarkFig12Spearman(b *testing.B) {
	_, _, users := benchDataset(b)
	b.ResetTimer()
	var r core.UserTrendResult
	for i := 0; i < b.N; i++ {
		r = core.UserTrends(users)
	}
	b.ReportMetric(r.Get("jobs", "avg_sm").Rho, "rho-jobs-avgsm(paper:high+)")
	b.ReportMetric(r.Get("jobs", "cov_sm").Rho, "rho-jobs-covsm(paper:<0.5)")
}

// --- Fig. 13 / §V ---

func BenchmarkFig13GPUCounts(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.GPUCountResult
	for i := 0; i < b.N; i++ {
		r = core.GPUCounts(ds.Columns())
	}
	b.ReportMetric(r.SingleGPUFrac*100, "single-gpu-pct(paper:84)")
	b.ReportMetric(r.MultiGPUHourShare*100, "multi-hour-share-pct(paper:50)")
}

func BenchmarkMultiGPUUsers(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.ConcentrationResult
	for i := 0; i < b.N; i++ {
		r = core.Concentration(ds.Columns())
	}
	b.ReportMetric(r.UsersWithMultiFrac*100, "users-multi-pct(paper:60)")
	b.ReportMetric(r.UsersWith9Frac*100, "users-9plus-pct(paper:5.2)")
}

// --- Fig. 14 ---

func BenchmarkFig14MultiGPU(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.MultiGPUResult
	for i := 0; i < b.N; i++ {
		r = core.MultiGPU(ds.Columns())
	}
	b.ReportMetric(r.HalfIdleJobFrac*100, "half-idle-pct(paper:~40)")
	b.ReportMetric(r.CoVActiveGPUs[0].P50, "active-sm-cov-median(paper:low)")
}

// --- Figs. 15–17 ---

func BenchmarkFig15Lifecycle(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.LifecycleResult
	for i := 0; i < b.N; i++ {
		r = core.Lifecycle(ds.Columns())
	}
	b.ReportMetric(r.JobShare[trace.Mature]*100, "mature-job-pct(paper:60)")
	b.ReportMetric(r.HourShare[trace.Exploratory]*100, "expl-hour-pct(paper:34)")
	b.ReportMetric(r.HourShare[trace.IDE]*100, "ide-hour-pct(paper:18)")
}

func BenchmarkFig16CategoryBoxes(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.LifecycleResult
	for i := 0; i < b.N; i++ {
		r = core.Lifecycle(ds.Columns())
	}
	b.ReportMetric(r.Boxes[trace.Mature][0].Median, "mature-sm-median(paper:21)")
	b.ReportMetric(r.Boxes[trace.IDE][0].Median, "ide-sm-median(paper:0)")
}

func BenchmarkFig17UserMix(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.UserMixResult
	for i := 0; i < b.N; i++ {
		r = core.UserMix(ds.Columns())
	}
	b.ReportMetric(r.UsersUnder40PctMatureJobs*100, "users-under40-mature-pct(paper:>50)")
}

func BenchmarkUserConcentration(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var r core.ConcentrationResult
	for i := 0; i < b.N; i++ {
		r = core.Concentration(ds.Columns())
	}
	b.ReportMetric(r.Top5PctShare*100, "top5-share-pct(paper:44)")
	b.ReportMetric(r.Top20PctShare*100, "top20-share-pct(paper:83.2)")
}

// BenchmarkExtensionPrediction scores the lightweight user-behavior
// predictors online over the shared dataset (the paper's §IV future-work
// direction, with its negative result as the reported metrics).
func BenchmarkExtensionPrediction(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	var scores []predict.Score
	var err error
	for i := 0; i < b.N; i++ {
		scores, err = predict.Evaluate(ds, predict.TargetRunMinutes, predict.StandardPredictors())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range scores {
		if s.Predictor == "global-median" {
			b.ReportMetric(s.MedAPE, "runtime-global-medape-pct")
		}
		if s.Predictor == "per-user-median(8)" {
			b.ReportMetric(s.MedAPE, "runtime-peruser-medape-pct")
		}
	}
}

// BenchmarkExtensionColocatedScheduling runs the queueing experiment: merge
// non-contending single-GPU jobs into shared-GPU bundles and schedule both
// variants on a deliberately saturated cluster, reporting the mean-wait cut
// co-location buys (the paper's §III takeaway turned into numbers).
func BenchmarkExtensionColocatedScheduling(b *testing.B) {
	gcfg := workload.ScaledConfig(0.01)
	gcfg.Seed = 3
	g, err := workload.NewGenerator(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	specs := g.GenerateSpecs()
	// Compress arrivals to saturate the 4-node test cluster.
	for i := range specs {
		specs[i].SubmitSec *= 0.15
	}
	plan := sharing.MergeForColocation(specs, sharing.DefaultColocationConfig(), 3600)
	run := func(toRun []workload.JobSpec) float64 {
		cfg := slurm.DefaultConfig()
		cfg.Cluster.Nodes = 6
		sim, err := slurm.NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		results, _, err := sim.Run(toRun)
		if err != nil {
			b.Fatal(err)
		}
		var waits []float64
		for i := range toRun {
			if toRun[i].IsGPU() {
				waits = append(waits, results[toRun[i].ID].WaitSec)
			}
		}
		return stats.Mean(waits)
	}
	b.ResetTimer()
	var excl, colo float64
	for i := 0; i < b.N; i++ {
		excl = run(specs)
		colo = run(plan.Merged)
	}
	b.ReportMetric(excl, "exclusive-mean-wait-s")
	b.ReportMetric(colo, "colocated-mean-wait-s")
	b.ReportMetric(float64(plan.PairsFormed), "pairs")
}

// --- Replication engine ---

// BenchmarkReplications times a 16-replication batch of the full pipeline
// (generate → schedule → characterize, -scale 0.05) through the parallel
// replication engine, serial vs parallel worker pools. With ≥ 8 hardware
// threads the 8-worker variant runs ≥ 3x faster than serial — the engine's
// scaling claim; on fewer cores the speedup degrades to min(cores, 8), so
// the per-run gomaxprocs metric records the machine's ceiling. Determinism
// across worker counts is asserted on every iteration via the merged-summary
// fingerprint, so this benchmark doubles as a stress test of the engine's
// order-independence.
func BenchmarkReplications(b *testing.B) {
	const reps = 16
	gcfg := workload.ScaledConfig(0.05)
	scfg := slurm.DefaultConfig()
	scfg.Cluster.Nodes = 11 // the 224-node machine scaled with the workload
	exp := engine.Experiment{Gen: gcfg, Sim: scfg}

	var serialFP string
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var fp string
			for i := 0; i < b.N; i++ {
				batch, err := engine.Run(context.Background(),
					engine.Config{RootSeed: 7, Reps: reps, Workers: workers}, exp.Replicator())
				if err != nil {
					b.Fatal(err)
				}
				if got := batch.Completed(); got != reps {
					b.Fatalf("completed %d of %d: %v", got, reps, batch.FirstErr())
				}
				fp = batch.Merged.Fingerprint()
			}
			if workers == 1 {
				serialFP = fp
			} else if serialFP != "" && fp != serialFP {
				b.Fatalf("workers=%d merged summary diverged from serial", workers)
			}
			b.ReportMetric(float64(reps)*float64(b.N)/b.Elapsed().Seconds(), "reps/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// --- Pipeline benches ---

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := workload.ScaledConfig(0.02)
	cfg.Seed = 3
	for i := 0; i < b.N; i++ {
		g, err := workload.NewGenerator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		specs := g.GenerateSpecs()
		ds := g.BuildDataset(specs)
		if len(ds.Jobs) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

func BenchmarkDESScheduling(b *testing.B) {
	gcfg := workload.ScaledConfig(0.01)
	gcfg.Seed = 3
	g, err := workload.NewGenerator(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	specs := g.GenerateSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scfg := slurm.DefaultConfig()
		scfg.Cluster.Nodes = 8
		sim, err := slurm.NewSimulator(scfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sim.Run(specs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullCharacterization(b *testing.B) {
	_, ds, _ := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := core.Characterize(ds.Columns(), 0); rep == nil {
			b.Fatal("nil report")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationIIDProfiles replaces phase-structured profiles with a
// single homogeneous phase and shows the Fig. 6 structure vanish: active
// time goes to 100 % and interval CoVs become undefined (reported as 0).
func BenchmarkAblationIIDProfiles(b *testing.B) {
	cfg := workload.ScaledConfig(0.02)
	cfg.Seed = 3
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	specs := g.GenerateSpecs()
	// Flatten every profile: one always-active phase at the mean level.
	for i := range specs {
		for gi, p := range specs[i].Profiles {
			mean := p.Summaries(gpu.V100(), gpu.DefaultPowerModel())
			flat, err := workload.NewProfile([]workload.Phase{{
				DurSec: specs[i].RunSec,
				Active: true,
				Level: gpu.Utilization{
					SMPct:      mean[metrics.SMUtil].Mean,
					MemPct:     mean[metrics.MemUtil].Mean,
					MemSizePct: mean[metrics.MemSize].Mean,
				},
			}}, 0)
			if err != nil {
				b.Fatal(err)
			}
			specs[i].Profiles[gi] = flat
		}
	}
	ds := g.BuildDataset(specs)
	b.ResetTimer()
	var r core.PhaseResult
	for i := 0; i < b.N; i++ {
		r = core.Phases(ds.Columns())
	}
	b.ReportMetric(r.ActiveTimePct.P50, "flat-active-median-pct(structured:~84)")
	b.ReportMetric(float64(r.IdleCoV.N), "jobs-with-idle-intervals(structured:many)")
}

// BenchmarkAblationExclusiveNodes stages core pressure (rolling shared CPU
// jobs over most node cores, with GPU headroom) and runs a stream of
// generated single-GPU jobs under both scheduler policies, reporting the
// GPU-wait inflation caused by exclusive-node reservations. At the paper's
// native utilization the policy never binds, so the contention is staged
// deliberately — the same construction as examples/colocation.
func BenchmarkAblationExclusiveNodes(b *testing.B) {
	gcfg := workload.ScaledConfig(0.01)
	gcfg.Seed = 3
	g, err := workload.NewGenerator(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	specs := stageCorePressure(g.GenerateSpecs())
	var colo, excl float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colo = meanGPUWait(b, specs, true)
		excl = meanGPUWait(b, specs, false)
	}
	b.ReportMetric(colo, "colocate-mean-gpu-wait-s")
	b.ReportMetric(excl, "exclusive-mean-gpu-wait-s")
	if excl <= colo {
		b.Log("warning: exclusive policy did not inflate waits under staged pressure")
	}
}

// stageCorePressure builds the demonstration workload: 30-core shared CPU
// jobs keep five of six nodes' cores busy while generated single-GPU jobs
// arrive every few minutes.
func stageCorePressure(specs []workload.JobSpec) []workload.JobSpec {
	var staged []workload.JobSpec
	for wave := 0; wave < 12; wave++ {
		for k := 0; k < 5; k++ {
			staged = append(staged, workload.JobSpec{
				Interface: trace.Batch, Exit: trace.ExitSuccess,
				SubmitSec: float64(wave) * 5000, RunSec: 5200, LimitSec: 86400,
				Cores: 30, MemGB: 64,
			})
		}
	}
	n := 0
	for i := range specs {
		sp := specs[i]
		if !sp.IsGPU() || sp.NumGPUs != 1 || sp.RunSec < 60 {
			continue
		}
		sp.SubmitSec = 600 + float64(n)*400
		if sp.RunSec > 1800 {
			sp.RunSec = 1800
		}
		staged = append(staged, sp)
		n++
		if n == 120 {
			break
		}
	}
	sort.Slice(staged, func(a, b int) bool { return staged[a].SubmitSec < staged[b].SubmitSec })
	for i := range staged {
		staged[i].ID = int64(i + 1)
	}
	return staged
}

func meanGPUWait(b *testing.B, specs []workload.JobSpec, colocate bool) float64 {
	b.Helper()
	scfg := slurm.DefaultConfig()
	scfg.Cluster.Nodes = 6
	scfg.Policy.Colocate = colocate
	sim, err := slurm.NewSimulator(scfg)
	if err != nil {
		b.Fatal(err)
	}
	results, _, err := sim.Run(specs)
	if err != nil {
		b.Fatal(err)
	}
	var waits []float64
	for i := range specs {
		if specs[i].IsGPU() {
			waits = append(waits, results[specs[i].ID].WaitSec)
		}
	}
	return stats.Mean(waits)
}

// BenchmarkAblationNoIdleGPUs regenerates the population with the idle-GPU
// pathology disabled and shows Fig. 14a's high-CoV mode disappear.
func BenchmarkAblationNoIdleGPUs(b *testing.B) {
	cfg := workload.ScaledConfig(0.05)
	cfg.Seed = 7
	cfg.Calib.IdleGPUJobFrac = 0
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ds := g.BuildDataset(g.GenerateSpecs())
	b.ResetTimer()
	var r core.MultiGPUResult
	for i := 0; i < b.N; i++ {
		r = core.MultiGPU(ds.Columns())
	}
	b.ReportMetric(r.HalfIdleJobFrac*100, "half-idle-pct(with-pathology:~40)")
	b.ReportMetric(r.CoVAllGPUs[0].P75, "all-gpu-sm-cov-p75(with-pathology:high)")
}

// BenchmarkAblationPowerModel swaps the affine-with-floor power model for a
// pure linear one and shows the Fig. 9a medians collapse: without the idle
// floor, low-utilization jobs read near-zero watts instead of the paper's
// 45 W median.
func BenchmarkAblationPowerModel(b *testing.B) {
	cfg := workload.ScaledConfig(0.05)
	cfg.Seed = 7
	cfg.PowerModel = gpu.LinearPowerModel{}
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ds := g.BuildDataset(g.GenerateSpecs())
	b.ResetTimer()
	var r core.PowerResult
	for i := 0; i < b.N; i++ {
		r = core.Power(ds.Columns())
	}
	b.ReportMetric(r.Avg.P50, "linear-avg-power-median-w(affine:~45)")
	// The idle floor is most visible at the quartile: low-utilization jobs
	// read near-zero watts under the linear model but ~25 W (the V100 idle
	// floor) under the affine one.
	b.ReportMetric(r.Avg.P25, "linear-avg-power-p25-w(affine:~27)")
}

// BenchmarkAblationColocationPolicies times the three GPU-sharing policies
// and reports their saved GPU-hour fractions side by side.
func BenchmarkAblationColocationPolicies(b *testing.B) {
	specs, _, _ := benchDataset(b)
	cfg := sharing.DefaultColocationConfig()
	b.ResetTimer()
	var static, phase sharing.ColocationReport
	for i := 0; i < b.N; i++ {
		static = sharing.Colocate(specs, sharing.StaticPairing, cfg)
		phase = sharing.Colocate(specs, sharing.PhaseAware, cfg)
	}
	b.ReportMetric(static.SavedFrac*100, "static-saved-pct")
	b.ReportMetric(phase.SavedFrac*100, "phase-saved-pct")
	b.ReportMetric(static.MaxSlowdown, "static-max-slowdown")
	b.ReportMetric(phase.MaxSlowdown, "phase-max-slowdown")
	ts, err := sharing.TimeSlice(specs, sharing.DefaultTimeSliceConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(ts.SavedFrac*100, "timeslice-saved-pct")
	b.ReportMetric(ts.MeanStretch, "timeslice-mean-stretch")
}
