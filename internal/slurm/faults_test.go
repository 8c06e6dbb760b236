package slurm

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/monitor"
	"repro/internal/sharing"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fatalOnlyPlan injects per-GPU fatal errors with no node outages.
func fatalOnlyPlan(mtbfHours float64) faults.Plan {
	return faults.Plan{GPUFatalMTBFHours: mtbfHours}
}

// TestGPUFatalTimeline exploits the purity of faults.AttemptFatal: the full
// kill/hold/requeue/finish timeline of a single job on an idle cluster is
// predictable outside the simulator, so every recovery accounting field can be
// asserted exactly rather than statistically.
func TestGPUFatalTimeline(t *testing.T) {
	const (
		seed    = uint64(7)
		run     = 600.0
		hold    = 120.0
		backoff = 2.0
	)
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Faults = fatalOnlyPlan(0.1) // 360 s MTBF: several kills before survival
	cfg.FaultSeed = seed
	cfg.Requeue = RequeuePolicy{MaxRetries: 50, HoldSec: hold, HoldBackoff: backoff}

	// Predict the timeline attempt by attempt. Without checkpointing every
	// attempt re-runs the full duration, so the fatal draw for attempt a is
	// AttemptFatal(plan, seed, id, a, 1, run).
	var (
		kills    int
		lostSec  float64
		holdSec  float64
		startAt  = 0.0 // each attempt starts as soon as its requeue lands
		predEnd  float64
		predWait float64
	)
	for a := 0; ; a++ {
		if a > 60 {
			t.Fatal("seed never survives 60 attempts; pick another seed")
		}
		off, killed := faults.AttemptFatal(cfg.Faults, seed, 1, a, 1, run)
		if !killed {
			predEnd = startAt + run
			break
		}
		kills++
		lostSec += off
		h := hold * math.Pow(backoff, float64(kills-1))
		holdSec += h
		startAt += off + h
	}
	if kills == 0 {
		t.Fatal("seed draws no fatal at all; the timeline test needs kills")
	}
	predWait = holdSec // queue wait excludes the failed attempts' busy time

	specs := []workload.JobSpec{mkGPUSpec(t, 1, 0, run, 1)}
	_, res, st := runSim(t, cfg, specs)
	r := res[1]
	const eps = 1e-9
	if r.Requeues != kills {
		t.Fatalf("requeues = %d, predicted %d", r.Requeues, kills)
	}
	if math.Abs(r.LostSec-lostSec) > eps {
		t.Fatalf("lost = %v, predicted %v", r.LostSec, lostSec)
	}
	if math.Abs(r.WaitSec-predWait) > eps {
		t.Fatalf("wait = %v, predicted hold total %v", r.WaitSec, predWait)
	}
	if math.Abs(r.EndSec-predEnd) > eps {
		t.Fatalf("end = %v, predicted %v", r.EndSec, predEnd)
	}
	if st.GPUFatals != kills || st.Requeues != kills {
		t.Fatalf("stats fatals/requeues = %d/%d, predicted %d", st.GPUFatals, st.Requeues, kills)
	}
	if math.Abs(st.LostGPUHours-lostSec/3600) > eps {
		t.Fatalf("lost GPU-hours = %v, predicted %v", st.LostGPUHours, lostSec/3600)
	}
	if math.Abs(st.GPUBusyHours-(lostSec+run)/3600) > eps {
		t.Fatalf("busy GPU-hours = %v, predicted %v", st.GPUBusyHours, (lostSec+run)/3600)
	}
	if st.JobsAbandoned != 0 || st.Completed != 1 {
		t.Fatalf("completed/abandoned = %d/%d", st.Completed, st.JobsAbandoned)
	}

	// The recovery fields survive the dataset join.
	sim, _ := NewSimulator(cfg)
	results, _, err := sim.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	ds := sim.BuildDataset(specs, results, 1)
	rec := &ds.Jobs[0]
	if rec.Requeues != kills || math.Abs(rec.FailureLossSec-lostSec) > eps {
		t.Fatalf("dataset record requeues/loss = %d/%v, want %d/%v",
			rec.Requeues, rec.FailureLossSec, kills, lostSec)
	}
}

// TestRequeueExhaustionAbandons pins the retry limit: a job whose every
// attempt dies must be dropped after MaxRetries requeues, not retried forever
// and not left pending at drain.
func TestRequeueExhaustionAbandons(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	// 3.6 s MTBF against a 6000 s run: every attempt dies almost surely.
	cfg.Faults = fatalOnlyPlan(0.001)
	cfg.FaultSeed = 3
	cfg.Requeue = RequeuePolicy{MaxRetries: 2, HoldSec: 10, HoldBackoff: 2}
	specs := []workload.JobSpec{mkGPUSpec(t, 1, 0, 6000, 1)}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := sim.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsAbandoned != 1 || st.Completed != 0 {
		t.Fatalf("abandoned/completed = %d/%d, want 1/0", st.JobsAbandoned, st.Completed)
	}
	if st.Requeues != cfg.Requeue.MaxRetries {
		t.Fatalf("requeues = %d, want %d", st.Requeues, cfg.Requeue.MaxRetries)
	}
	if st.GPUFatals != cfg.Requeue.MaxRetries+1 {
		t.Fatalf("fatals = %d, want %d", st.GPUFatals, cfg.Requeue.MaxRetries+1)
	}
	if res[1] != nil {
		t.Fatalf("abandoned job still has a result: %+v", res[1])
	}
	if sim.cluster.FreeGPUs() != cfg.Cluster.TotalGPUs() {
		t.Fatalf("abandoned job leaked capacity: free %d of %d",
			sim.cluster.FreeGPUs(), cfg.Cluster.TotalGPUs())
	}
}

// TestCheckpointReducesLostWork compares the same seeded failure process with
// and without checkpoint credit: checkpointing must recover work, reduce the
// loss, and never stop the job from completing.
func TestCheckpointReducesLostWork(t *testing.T) {
	base := DefaultConfig()
	base.Cluster = smallCluster()
	base.Faults = fatalOnlyPlan(0.3) // 1080 s MTBF against a 3600 s run
	base.FaultSeed = 11
	base.Requeue = RequeuePolicy{MaxRetries: 5000, HoldSec: 1, HoldBackoff: 1}
	specs := []workload.JobSpec{mkGPUSpec(t, 1, 0, 3600, 1)}

	_, resNo, stNo := runSim(t, base, specs)

	ck := base
	ck.Requeue.Checkpoint = &sharing.CheckpointConfig{
		OverheadSec: 10,
		RestartSec:  30,
		Categories:  []trace.Category{trace.Mature, trace.Exploratory, trace.Development, trace.IDE},
	}
	_, resCk, stCk := runSim(t, ck, specs)

	if stNo.Completed != 1 || stCk.Completed != 1 {
		t.Fatalf("completed without/with ckpt = %d/%d", stNo.Completed, stCk.Completed)
	}
	if stNo.GPUFatals == 0 {
		t.Fatal("failure process never fired; the comparison is vacuous")
	}
	if stCk.RecoveredGPUHours <= 0 {
		t.Fatalf("checkpointing recovered nothing (fatals=%d)", stCk.GPUFatals)
	}
	if stNo.RecoveredGPUHours != 0 {
		t.Fatalf("recovered %v GPU-hours without a checkpoint config", stNo.RecoveredGPUHours)
	}
	if stCk.LostGPUHours >= stNo.LostGPUHours {
		t.Fatalf("checkpointing did not reduce loss: %v >= %v", stCk.LostGPUHours, stNo.LostGPUHours)
	}
	if resCk[1].LostSec >= resNo[1].LostSec {
		t.Fatalf("per-job loss did not shrink: %v >= %v", resCk[1].LostSec, resNo[1].LostSec)
	}
}

// TestNodeCrashAvailability drives a crash/repair process under real load and
// checks the capacity accounting: crashes and repairs balance, down time is
// integrated, and the event-driven telemetry reproduces the stats-side
// availability integral.
func TestNodeCrashAvailability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Faults = faults.Plan{NodeCrashMTBFHours: 6, MeanRepairHours: 1}
	cfg.FaultSeed = 5
	cfg.Requeue = RequeuePolicy{MaxRetries: 100, HoldSec: 30, HoldBackoff: 2}

	var specs []workload.JobSpec
	for i := 0; i < 24; i++ {
		specs = append(specs, mkGPUSpec(t, int64(i+1), float64(i)*60, 4*3600, 1+i%2))
	}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := sim.EnableTelemetry(0)
	res, st, err := sim.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeCrashes == 0 {
		t.Fatal("no crashes fired; pick a different seed or rate")
	}
	if st.DownGPUHours <= 0 || st.Availability() >= 1 {
		t.Fatalf("down hours %v, availability %v", st.DownGPUHours, st.Availability())
	}
	if st.LostGPUHours <= 0 {
		t.Fatal("crashes killed jobs but destroyed no work")
	}
	if st.Completed+st.JobsAbandoned != len(specs) {
		t.Fatalf("completed %d + abandoned %d != %d jobs", st.Completed, st.JobsAbandoned, len(specs))
	}
	if got := st.Completed; got != len(res) {
		t.Fatalf("stats completed %d != %d results", got, len(res))
	}
	// Every outage that fired during the workload was repaired: the cluster
	// ends whole, with every node back up and capacity conserved.
	for n := 0; n < cfg.Cluster.Nodes; n++ {
		if s := sim.cluster.NodeState(n); s != cluster.NodeUp {
			t.Fatalf("node %d ends in state %v", n, s)
		}
	}
	if sim.cluster.FreeGPUs() != cfg.Cluster.TotalGPUs() {
		t.Fatalf("free GPUs %d != total %d after full repair",
			sim.cluster.FreeGPUs(), cfg.Cluster.TotalGPUs())
	}
	if err := sim.cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The telemetry series and the stats integral are two independent
	// accountings of the same down time.
	if got, want := tel.AvailabilityMean(st.TotalGPUs), st.Availability(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("telemetry availability %v != stats availability %v", got, want)
	}
}

// TestNodeDrainIsGraceful pins the drain semantics: scheduled drains let
// residents finish, so a drain-only plan kills nothing and loses no work —
// it only removes capacity for the repair window.
func TestNodeDrainIsGraceful(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Faults = faults.Plan{NodeDrainMTBFHours: 8, MeanRepairHours: 0.5}
	cfg.FaultSeed = 2
	var specs []workload.JobSpec
	for i := 0; i < 16; i++ {
		specs = append(specs, mkGPUSpec(t, int64(i+1), float64(i)*300, 2*3600, 1))
	}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := sim.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeDrains == 0 {
		t.Fatal("no drains fired; pick a different seed or rate")
	}
	if st.NodeCrashes != 0 || st.GPUFatals != 0 || st.Requeues != 0 || st.JobsAbandoned != 0 {
		t.Fatalf("drain-only plan produced kills: %+v", st)
	}
	if st.LostGPUHours != 0 || st.RecoveredGPUHours != 0 {
		t.Fatalf("drain-only plan lost work: %v/%v", st.LostGPUHours, st.RecoveredGPUHours)
	}
	if st.DownGPUHours <= 0 {
		t.Fatal("drains never took capacity down")
	}
	if st.Completed != len(specs) {
		t.Fatalf("completed %d of %d", st.Completed, len(specs))
	}
	for _, r := range res {
		if r.Requeues != 0 || r.LostSec != 0 {
			t.Fatalf("job %d shows recovery activity under a drain-only plan: %+v", r.JobID, r)
		}
	}
	if err := sim.cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultRunDeterministic locks the reproducibility contract: the same
// (config, specs, seed) triple replays bit-identically, and a different fault
// seed actually changes the failure process.
func TestFaultRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Faults = faults.Plan{
		NodeCrashMTBFHours: 12,
		NodeDrainMTBFHours: 24,
		MeanRepairHours:    1,
		GPUFatalMTBFHours:  24,
	}
	cfg.FaultSeed = 9
	specs := contended(t, 42, cfg)

	_, res1, st1 := runSim(t, cfg, specs)
	_, res2, st2 := runSim(t, cfg, specs)
	if st1 != st2 {
		t.Fatalf("stats diverge on replay:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("results diverge on replay")
	}
	if st1.Completed+st1.JobsAbandoned != len(specs) {
		t.Fatalf("completed %d + abandoned %d != %d", st1.Completed, st1.JobsAbandoned, len(specs))
	}

	cfg.FaultSeed = 10
	_, res3, st3 := runSim(t, cfg, specs)
	if st3 == st1 && reflect.DeepEqual(res3, res1) {
		t.Fatal("changing FaultSeed changed nothing")
	}
}

// cancelAfter is a context whose Err flips to Canceled after a fixed number of
// polls — a deterministic stand-in for a user canceling mid-run.
type cancelAfter struct {
	context.Context
	remaining int
}

func (c *cancelAfter) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestRunContextCancellation covers the satellite contract: a canceled context
// stops an in-flight simulation promptly instead of running it to completion.
func TestRunContextCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	specs := contended(t, 1, cfg)

	t.Run("pre-canceled", func(t *testing.T) {
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := sim.RunContext(ctx, specs); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("mid-run", func(t *testing.T) {
		if len(specs)*2 <= ctxCheckInterval {
			t.Fatalf("workload too small to reach the %d-event context check", ctxCheckInterval)
		}
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The first poll (event 0) passes; the second (event 1024) cancels.
		ctx := &cancelAfter{Context: context.Background(), remaining: 1}
		_, _, err = sim.RunContext(ctx, specs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("uncanceled-matches-run", func(t *testing.T) {
		sim1, _ := NewSimulator(cfg)
		res1, st1, err := sim1.RunContext(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		sim2, _ := NewSimulator(cfg)
		res2, st2, err := sim2.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		if st1 != st2 || !reflect.DeepEqual(res1, res2) {
			t.Fatal("RunContext with a background context diverges from Run")
		}
	})
}

// TestMonitorFaultsRequireMonitoring pins the config validation: a collector
// fault plan without a monitoring pipeline is a configuration error, not a
// silent no-op.
func TestMonitorFaultsRequireMonitoring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.MonitorFaults = monitor.FaultPlan{0: {DropRate: 0.5}}
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("monitor faults without monitoring must be rejected")
	}
}

// TestSimulatedLossMatchesAnalyticReliability is the acceptance cross-check:
// running the DES with the per-GPU fatal process at SlowTierMTBFHours=500 must
// reproduce sharing.ReliabilityStudy's analytic lost-work estimate within 10%,
// pooled across ten seeds.
//
// The analytic model is first-order — expected loss per job (G·R_h)²/(2·MTBF),
// valid when the per-job exposure x = G·R_h/MTBF is small (the exact
// expectation is MTBF·(eˣ−1−x), a +x/3 relative bias). The comparison
// population is therefore capped at 10 exposure GPU-hours per job (x ≤ 0.02,
// bias ≤ 0.7%), which also matches the §VIII setting: the flaky tier hosts
// the short exploratory/development work, not the largest runs. Ten pooled
// seeds put the sampling noise near 4%, well inside the 10% band.
func TestSimulatedLossMatchesAnalyticReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed DES cross-check is slow")
	}
	const (
		mtbfHours   = 500.0
		maxExposure = 10.0 // GPU-hours per job, keeps the analytic model in regime
	)
	allCats := []trace.Category{trace.Mature, trace.Exploratory, trace.Development, trace.IDE}
	v100 := gpu.V100()
	plan := sharing.ReliabilityPlan{
		Tiering: sharing.TierPlan{
			Fast:                v100,
			Slow:                v100, // slowdown 1: loss differences isolate the failure model
			SlowTierCategories:  allCats,
			UtilizationHeadroom: 0.25,
		},
		SlowTierMTBFHours: mtbfHours,
	}

	var simLost, analyticLost float64
	var fatals int
	for seed := uint64(1); seed <= 10; seed++ {
		gcfg := workload.ScaledConfig(1)
		gcfg.Seed = seed
		gen, err := workload.NewGenerator(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Faults = fatalOnlyPlan(mtbfHours)
		cfg.FaultSeed = seed
		// Effectively unbounded retries with a flat negligible hold: every
		// job completes, so the DES loss is comparable to the analytic model,
		// which assumes eventual completion.
		cfg.Requeue = RequeuePolicy{MaxRetries: 1 << 20, HoldSec: 1, HoldBackoff: 1}

		specs := gen.GenerateSpecs()
		kept := specs[:0]
		for _, sp := range specs {
			if float64(sp.NumGPUs)*sp.RunSec/3600 <= maxExposure {
				kept = append(kept, sp)
			}
		}
		specs, _ = Feasible(cfg, kept)

		res, st, err := Simulate(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		if st.JobsAbandoned != 0 {
			t.Fatalf("seed %d: %d jobs abandoned; loss is not comparable", seed, st.JobsAbandoned)
		}
		fatals += st.GPUFatals
		// Pool only the population the analytic study prices: GPU jobs above
		// the trace's run-length floor.
		for i := range specs {
			sp := &specs[i]
			if sp.NumGPUs == 0 || sp.RunSec < trace.MinGPUJobRunSec {
				continue
			}
			if r := res[sp.ID]; r != nil {
				simLost += float64(sp.NumGPUs) * r.LostSec / 3600
			}
		}
		rel, err := sharing.ReliabilityStudy(gen.BuildDataset(specs), plan)
		if err != nil {
			t.Fatal(err)
		}
		analyticLost += rel.LostGPUHours
	}
	if fatals < 50 {
		t.Fatalf("only %d fatal errors pooled; the comparison lacks power", fatals)
	}
	ratio := simLost / analyticLost
	t.Logf("simulated %.1f vs analytic %.1f lost GPU-hours (ratio %.3f, %d fatals)",
		simLost, analyticLost, ratio, fatals)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("simulated/analytic lost-work ratio %.3f outside [0.9, 1.1] (sim %.1f, analytic %.1f)",
			ratio, simLost, analyticLost)
	}
}
