// Quickstart: synthesize a small Supercloud-shaped workload, build the
// joined dataset, run the characterization suite, and print the headline
// findings next to the paper's published values.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Configure a generator at 15 % of the paper's population and build
	// the dataset along the analytic path.
	cfg := workload.ScaledConfig(0.15)
	cfg.Seed = 7
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	specs := gen.GenerateSpecs()
	ds := gen.BuildDataset(specs)
	fmt.Printf("synthesized %d jobs from %d users; %d GPU jobs pass the 30s filter\n\n",
		len(ds.Jobs), len(ds.Users()), len(ds.GPUJobs()))

	// 2. Run the full characterization.
	rep := core.Characterize(ds.Columns(), 0)

	// 3. Compare the headlines against the paper.
	row := func(name string, got float64, paper string) {
		fmt.Printf("  %-42s %10.2f   (paper: %s)\n", name, got, paper)
	}
	fmt.Println("headline statistics vs the paper:")
	row("GPU job run-time median (min)", rep.Runtimes.GPU.P50, "30")
	row("CPU job run-time median (min)", rep.Runtimes.CPU.P50, "8")
	row("GPU jobs waiting <1 min (%)", rep.Waits.GPUWaitUnder1MinFrac*100, "70")
	row("SM utilization median (%)", rep.Utilization.SM.P50, "16")
	row("memory-BW utilization median (%)", rep.Utilization.Mem.P50, "2")
	row("jobs with >50% SM (%)", rep.Utilization.SMOver50*100, "20")
	row("median average power (W)", rep.Power.Avg.P50, "45")
	row("active-phase time median (%)", rep.Phases.ActiveTimePct.P50, "84")
	row("single-GPU job share (%)", rep.GPUCounts.SingleGPUFrac*100, "84")
	row("mature job share (%)", rep.Lifecycle.JobShare[trace.Mature]*100, "60")
	row("exploratory GPU-hour share (%)", rep.Lifecycle.HourShare[trace.Exploratory]*100, "34")
	row("top-5% user job share (%)", rep.Concentration.Top5PctShare*100, "44")

	// 4. The Fig. 12 trend: expert users run hotter, but are not more
	// predictable.
	avgSM := rep.UserTrends.Get("jobs", "avg_sm")
	covSM := rep.UserTrends.Get("jobs", "cov_sm")
	fmt.Printf("\nSpearman(jobs, avg SM) = %.2f (p=%.3g); Spearman(jobs, CoV SM) = %.2f\n",
		avgSM.Rho, avgSM.PValue, covSM.Rho)
}
