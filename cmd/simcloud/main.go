// Command simcloud runs the discrete-event path end to end: synthesize a
// job population, schedule it on the simulated 224-node cluster through the
// Slurm-like scheduler with the monitoring pipeline attached, and report
// scheduling statistics plus the Fig. 3b queue-wait comparison. The point of
// this path is validation — the short GPU waits emerge from the co-location
// policy, not from calibration (try -colocate=false to see them collapse).
//
// Usage:
//
//	simcloud -scale 0.05
//	simcloud -scale 0.05 -nodes 40 -colocate=false
//	simcloud -in trace.csv                     # replay a recorded trace
//	simcloud -scale 0.05 -reps 16 -workers 8   # replicated run with CIs
//
// With -reps N > 1 the run is replicated N times with independently-seeded
// populations (streams split from -seed) across -workers goroutines, and the
// report becomes across-replication statistics: mean, standard error and a
// bootstrap confidence interval per metric. Ctrl-C returns the partial
// batch. The merged output is bit-identical for any -workers value.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/slurm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simcloud: ")
	var (
		in          = flag.String("in", "", "replay a recorded dataset (.csv or .json from tracegen) instead of generating")
		days        = flag.Float64("days", 125, "observation window for CSV inputs")
		scale       = flag.Float64("scale", 0.05, "population scale relative to the paper")
		seed        = flag.Uint64("seed", 1, "generator seed")
		nodes       = flag.Int("nodes", 0, "cluster nodes (0 = scale the 224-node machine with the workload)")
		colocate    = flag.Bool("colocate", true, "share node CPUs between GPU jobs and CPU slices (production policy)")
		monInterval = flag.Float64("monitor-interval", 30, "GPU sampling cadence in simulated seconds (0 = disable monitoring)")
		out         = flag.String("out", "", "optional path to write the resulting dataset (JSON)")
		reps        = flag.Int("reps", 1, "independently-seeded replications (>1 switches to the replicated report)")
		workers     = flag.Int("workers", 0, "worker goroutines for replicated runs (0 = GOMAXPROCS)")
		mtbfCrash   = flag.Float64("mtbf-crash", 0, "per-node hard-crash MTBF in hours (0 = no crashes)")
		mtbfDrain   = flag.Float64("mtbf-drain", 0, "per-node graceful-drain MTBF in hours (0 = no drains)")
		mtbfGPU     = flag.Float64("mtbf-gpu", 0, "per-GPU fatal-error MTBF in hours (0 = no GPU fatals)")
		repairHours = flag.Float64("repair-hours", 2, "mean node repair time in hours")
		maxRetries  = flag.Int("max-retries", 3, "requeue attempts before a failed job is abandoned")
		faultSeed   = flag.Uint64("fault-seed", 0, "failure-stream seed (0 = derive from -seed)")
		shards      = flag.Int("shards", 1, "partition the cluster into independent node-group shards (>1 enables the parallel sharded simulator)")
		shardWork   = flag.Int("shard-workers", 0, "concurrent shard executors per window round (0 = GOMAXPROCS); output is identical for any value")
		windowSec   = flag.Float64("window", 0, "conservative shard synchronization window in simulated seconds (0 = default)")
		predictMode = flag.String("predict", "off", "backfill estimator: off (conservative fence), limit (requested wall-clock), forecast (online runtime forecasts with prefix refinement)")
		predObs     = flag.Float64("predict-obs-scale", 1, "scale observed runtimes before they feed the forecaster (mispredict robustness knob: <1 under-estimates, >1 over-estimates)")
		predFreeze  = flag.Int("predict-freeze", 0, "freeze per-user priors after this many observations (stale-prior robustness knob; 0 = never)")
		reserveAge  = flag.Float64("reservation-age", 0, "blocked-job age (s) that arms a backfill reservation (0 = production default)")
	)
	flag.Parse()
	sharding := slurm.Sharding{Shards: *shards, Workers: *shardWork, WindowSec: *windowSec}

	plan := faults.Plan{
		NodeCrashMTBFHours: *mtbfCrash,
		NodeDrainMTBFHours: *mtbfDrain,
		GPUFatalMTBFHours:  *mtbfGPU,
		MeanRepairHours:    *repairHours,
	}

	gcfg := workload.ScaledConfig(*scale)
	gcfg.Seed = *seed

	if *reps > 1 {
		if *in != "" {
			log.Fatal("replicated runs (-reps > 1) regenerate the population per replication; -in is not supported")
		}
		scfg := simConfig(*nodes, *scale, *colocate, *monInterval, *seed)
		applyFaults(&scfg, plan, *faultSeed, *seed, *maxRetries)
		applyPredict(&scfg, *predictMode, *predObs, *predFreeze, *reserveAge)
		runReplicated(gcfg, scfg, sharding, *reps, *workers, *seed)
		return
	}

	var (
		specs  []workload.JobSpec
		replay *trace.Dataset
	)
	if *in != "" {
		ds, err := loadDataset(*in, *days)
		if err != nil {
			log.Fatal(err)
		}
		replay = ds
		specs = workload.ReplaySpecs(ds)
		gcfg.DurationDays = ds.DurationDays
	} else {
		gen, err := workload.NewGenerator(gcfg)
		if err != nil {
			log.Fatal(err)
		}
		specs = gen.GenerateSpecs()
	}

	scfg := simConfig(*nodes, *scale, *colocate, *monInterval, *seed)
	applyFaults(&scfg, plan, *faultSeed, *seed, *maxRetries)
	applyPredict(&scfg, *predictMode, *predObs, *predFreeze, *reserveAge)
	var rejected []workload.JobSpec
	specs, rejected = slurm.Feasible(scfg, specs)
	if len(rejected) > 0 {
		log.Printf("rejected %d jobs exceeding cluster capacity (Slurm partition limits)", len(rejected))
	}
	if replay != nil {
		workload.ReplayProfiles(replay, specs, *seed)
	}
	if scfg.Monitor != nil {
		// Detailed series for the scaled subset, chosen by stride.
		detailed := map[int64]bool{}
		stride := len(specs) / max(1, gcfg.TimeSeriesJobs)
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(specs); i += stride {
			if specs[i].IsGPU() {
				detailed[specs[i].ID] = true
			}
		}
		scfg.DetailedJobs = detailed
	}

	var (
		results map[int64]*slurm.Result
		st      slurm.Stats
		ds      *trace.Dataset
		tel     *slurm.Telemetry
		shRun   *slurm.ShardedRun
	)
	if *shards > 1 {
		run, err := slurm.SimulateSharded(context.Background(), scfg, specs, sharding)
		if err != nil {
			log.Fatal(err)
		}
		if len(run.Rejected) > 0 {
			log.Printf("rejected %d jobs exceeding shard capacity", len(run.Rejected))
		}
		st = run.Merged
		ds = run.BuildDataset(gcfg.DurationDays)
		results = make(map[int64]*slurm.Result, st.Completed)
		for _, shard := range run.Results {
			for id, res := range shard {
				results[id] = res
			}
		}
		shRun = run
	} else {
		sim, err := slurm.NewSimulator(scfg)
		if err != nil {
			log.Fatal(err)
		}
		tel = sim.EnableTelemetry(0)
		results, st, err = sim.Run(specs)
		if err != nil {
			log.Fatal(err)
		}
		ds = sim.BuildDataset(specs, results, gcfg.DurationDays)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	t := report.NewTable("simulation summary", "quantity", "value")
	t.AddRowF("jobs completed", st.Completed)
	t.AddRowF("cluster nodes", scfg.Cluster.Nodes)
	t.AddRowF("total GPUs", st.TotalGPUs)
	t.AddRowF("mean GPU occupancy", st.MeanGPUOccupancy())
	t.AddRowF("max queue length", st.MaxQueueLen)
	t.AddRowF("monitor overflows", st.MonitorOverflow)
	t.AddRowF("scheduler passes", st.SchedulePasses)
	t.AddRowF("allocation attempts", st.AllocAttempts)
	t.AddRowF("blocked-verdict cache hits", st.AllocCacheHits)
	if err := t.Render(w); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w)

	var gpuWaits, cpuWaits []float64
	for _, j := range ds.GPUJobs() {
		gpuWaits = append(gpuWaits, j.WaitSec)
	}
	for _, j := range ds.CPUJobs() {
		cpuWaits = append(cpuWaits, j.WaitSec)
	}
	t2 := report.NewTable("Fig 3b (DES path): queue waits", "population", "median (s)", "p90 (s)", "mean (s)")
	t2.AddRowF("GPU jobs", stats.Median(gpuWaits), stats.Quantile(gpuWaits, 0.9), stats.Mean(gpuWaits))
	t2.AddRowF("CPU jobs", stats.Median(cpuWaits), stats.Quantile(cpuWaits, 0.9), stats.Mean(cpuWaits))
	if err := t2.Render(w); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w)

	bySize := slurm.WaitBySize(specs, results)
	t3 := report.NewTable("Sec V (DES path): median wait by job size", "size", "median wait (s)")
	for c := 0; c < 4; c++ {
		t3.AddRowF(core.SizeClassLabel(c), bySize[c])
	}
	if err := t3.Render(w); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w)

	if tel != nil {
		occ := tel.OccupancyQuantiles(st.TotalGPUs, 0.25, 0.5, 0.9)
		t4 := report.NewTable("cluster telemetry", "quantity", "value")
		t4.AddRowF("occupancy p25/p50/p90", fmt.Sprintf("%.2f / %.2f / %.2f", occ[0], occ[1], occ[2]))
		t4.AddRowF("peak queue depth", tel.PeakQueueLen())
		t4.AddRowF("telemetry points", len(tel.Points))
		if err := t4.Render(w); err != nil {
			log.Fatal(err)
		}
	}
	if shRun != nil {
		t5 := report.NewTable("shard execution", "shard", "nodes", "jobs", "events", "horizon (s)")
		for i, sst := range shRun.ShardStats {
			t5.AddRowF(i, sst.TotalGPUs/max(1, scfg.Cluster.GPUsPerNode), len(shRun.Specs[i]), sst.EventsProcessed, sst.HorizonSec)
		}
		if err := t5.Render(w); err != nil {
			log.Fatal(err)
		}
		agg := shRun.WaitAgg()
		fmt.Fprintf(w, "sync windows: %d  merged wait mean: %.1fs over %d jobs\n",
			shRun.Windows, agg.Mean(), agg.N())
	}

	if scfg.Policy.Predict.Enabled {
		fmt.Fprintln(w)
		tp := report.NewTable("prediction-aware backfill", "quantity", "value")
		tp.AddRowF("predicted backfills", st.PredictedBackfills)
		meanBackfillWait := 0.0
		if st.PredictedBackfills > 0 {
			meanBackfillWait = st.PredictedBackfillWaitSec / float64(st.PredictedBackfills)
		}
		tp.AddRowF("mean backfilled-job wait (s)", meanBackfillWait)
		tp.AddRowF("prediction hits / misses", fmt.Sprintf("%d / %d", st.PredictHits, st.PredictMisses))
		if scored := st.PredictHits + st.PredictMisses; scored > 0 {
			tp.AddRowF("runtime forecast MAE (s)", st.PredictAbsErrSec/float64(scored))
		}
		if err := tp.Render(w); err != nil {
			log.Fatal(err)
		}
	}

	if !scfg.Faults.Empty() {
		fmt.Fprintln(w)
		if err := report.AvailabilitySummary(w, "fault injection: availability & goodput", st); err != nil {
			log.Fatal(err)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := ds.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "\nwrote dataset to %s\n", *out)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// simConfig builds the scheduler configuration shared by the single-run and
// replicated paths (replications skip the detailed-series subset, which is a
// per-population choice).
func simConfig(nodes int, scale float64, colocate bool, monInterval float64, seed uint64) slurm.Config {
	scfg := slurm.DefaultConfig()
	if nodes > 0 {
		scfg.Cluster.Nodes = nodes
	} else {
		n := int(float64(scfg.Cluster.Nodes) * scale)
		if n < 4 {
			n = 4
		}
		scfg.Cluster.Nodes = n
	}
	scfg.Policy.Colocate = colocate
	if monInterval > 0 {
		mc := monitor.DefaultConfig()
		mc.GPUIntervalSec = monInterval
		scfg.Monitor = &mc
		scfg.MonitorSeed = seed
	}
	return scfg
}

// applyFaults layers the CLI's fault plan onto a scheduler configuration.
// A zero plan leaves the configuration untouched, so the fault-free paths
// stay byte-identical to the pre-fault binary.
func applyFaults(scfg *slurm.Config, plan faults.Plan, faultSeed, seed uint64, maxRetries int) {
	if plan.Empty() {
		return
	}
	scfg.Faults = plan
	if faultSeed == 0 {
		faultSeed = seed
	}
	scfg.FaultSeed = faultSeed
	scfg.Requeue = slurm.DefaultRequeuePolicy()
	scfg.Requeue.MaxRetries = maxRetries
}

// applyPredict wires the -predict mode onto a scheduler configuration. The
// default ("off") leaves the conservative reservation fence untouched, so
// existing invocations stay byte-identical.
func applyPredict(scfg *slurm.Config, mode string, obsScale float64, freeze int, reserveAge float64) {
	switch mode {
	case "off":
	case "limit":
		scfg.Policy.Predict = slurm.PredictPolicy{Enabled: true, UseRequestedLimit: true}
	case "forecast":
		scfg.Policy.Predict = slurm.DefaultPredictPolicy()
		scfg.Policy.Predict.ObsScale = obsScale
		scfg.Policy.Predict.FreezeAfterObs = freeze
	default:
		log.Fatalf("unknown -predict mode %q (want off, limit, or forecast)", mode)
	}
	if reserveAge > 0 {
		scfg.Policy.ReservationAgeSec = reserveAge
	}
}

// runReplicated fans the generator→scheduler→characterization pipeline
// across the worker pool and prints across-replication statistics. Ctrl-C
// cancels the batch and reports whatever completed.
func runReplicated(gcfg workload.Config, scfg slurm.Config, sharding slurm.Sharding, reps, workers int, seed uint64) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	exp := engine.Experiment{Gen: gcfg, Sim: scfg, Sharding: sharding}
	batch, err := engine.Run(ctx, engine.Config{RootSeed: seed, Reps: reps, Workers: workers}, exp.Replicator())
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if err := report.ReplicationSummary(w, "replicated DES run", batch); err != nil {
		log.Fatal(err)
	}
}

// loadDataset reads a tracegen output file.
func loadDataset(path string, days float64) (*trace.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".json.gz"):
		return trace.ReadJSONGZ(f)
	case strings.HasSuffix(path, ".json"):
		return trace.ReadJSON(f)
	case strings.HasSuffix(path, ".csv.gz"), strings.HasSuffix(path, ".gz"):
		return trace.ReadCSVGZ(f, days)
	default:
		return trace.ReadCSV(f, days)
	}
}
