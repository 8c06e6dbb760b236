package slurm

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallCluster returns a 8-node test machine.
func smallCluster() cluster.Config {
	cfg := cluster.SupercloudConfig()
	cfg.Nodes = 8
	return cfg
}

// mkGPUSpec builds a minimal GPU job spec with an always-active profile.
func mkGPUSpec(t *testing.T, id int64, submit, run float64, gpus int) workload.JobSpec {
	t.Helper()
	sp := workload.JobSpec{
		ID: id, User: 0, Interface: trace.Other, Exit: trace.ExitSuccess,
		SubmitSec: submit, RunSec: run, LimitSec: 86400,
		NumGPUs: gpus, CoresPerGPU: 4, MemGBPerGPU: 32,
	}
	for g := 0; g < gpus; g++ {
		p, err := workload.NewProfile([]workload.Phase{
			{DurSec: run, Active: true, Level: gpu.Utilization{SMPct: 50, MemPct: 10, MemSizePct: 20}},
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		sp.Profiles = append(sp.Profiles, p)
	}
	return sp
}

func mkCPUSpec(id int64, submit, run float64, cores int, exclusive bool) workload.JobSpec {
	return workload.JobSpec{
		ID: id, User: 1, Interface: trace.Batch, Exit: trace.ExitSuccess,
		SubmitSec: submit, RunSec: run, LimitSec: 86400,
		Cores: cores, MemGB: 64, Exclusive: exclusive,
	}
}

// runSim runs specs to completion and verifies the cluster's capacity index
// and conservation invariants once the run ends. Per-grant placement
// equivalence is a cluster-package property (its audited randomized tests).
func runSim(t *testing.T, cfg Config, specs []workload.JobSpec) (*Simulator, map[int64]*Result, Stats) {
	t.Helper()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := sim.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.cluster.CheckInvariants(); err != nil {
		t.Fatalf("cluster invariants after the run: %v", err)
	}
	return sim, res, st
}

func TestImmediateStartOnIdleCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	specs := []workload.JobSpec{mkGPUSpec(t, 1, 100, 600, 2)}
	_, res, st := runSim(t, cfg, specs)
	r := res[1]
	if r.WaitSec != 0 {
		t.Fatalf("wait = %v on idle cluster", r.WaitSec)
	}
	if r.EndSec != 700 {
		t.Fatalf("end = %v", r.EndSec)
	}
	if st.Completed != 1 {
		t.Fatalf("completed = %d", st.Completed)
	}
	// 2 GPU × 600 s busy.
	if math.Abs(st.GPUBusyHours-2*600.0/3600) > 1e-9 {
		t.Fatalf("busy hours = %v", st.GPUBusyHours)
	}
}

func TestQueueingWhenGPUsExhausted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster() // 16 GPUs
	var specs []workload.JobSpec
	// 17 single-GPU jobs of 1000 s submitted together: one must wait.
	for i := int64(1); i <= 17; i++ {
		specs = append(specs, mkGPUSpec(t, i, 0, 1000, 1))
	}
	_, res, _ := runSim(t, cfg, specs)
	var sum float64
	for _, r := range res {
		sum += r.WaitSec
	}
	if math.Abs(sum-1000) > 1e-6 {
		t.Fatalf("total wait = %v, want exactly one 1000s wait", sum)
	}
}

func TestColocationKeepsGPUWaitsLow(t *testing.T) {
	// A stream of CPU-light GPU jobs plus node-hungry CPU jobs: with
	// co-location, GPU jobs squeeze in beside CPU slices; the exclusive-node
	// ablation forces them to wait. This is the Fig. 3b mechanism.
	build := func() []workload.JobSpec {
		var specs []workload.JobSpec
		id := int64(1)
		// Six shared 30-core CPU jobs drain the cores of nodes 0–4.
		for i := 0; i < 6; i++ {
			specs = append(specs, mkCPUSpec(id, 0, 50000, 30, false))
			id++
		}
		// 8 single-GPU jobs (4 cores each) arrive shortly after.
		for i := 0; i < 8; i++ {
			specs = append(specs, mkGPUSpec(t, id, 10, 2000, 1))
			id++
		}
		return specs
	}
	colo := DefaultConfig()
	colo.Cluster = smallCluster()
	_, resColo, _ := runSim(t, colo, build())

	excl := DefaultConfig()
	excl.Cluster = smallCluster()
	excl.Policy.Colocate = false
	_, resExcl, _ := runSim(t, excl, build())

	var coloWait, exclWait float64
	for id := int64(7); id <= 14; id++ {
		coloWait += resColo[id].WaitSec
		exclWait += resExcl[id].WaitSec
	}
	if coloWait != 0 {
		t.Fatalf("co-located GPU jobs waited %v s; enough GPUs reachable beside CPU slices", coloWait)
	}
	if exclWait <= coloWait {
		t.Fatalf("exclusive ablation should inflate waits: colo=%v excl=%v", coloWait, exclWait)
	}
}

func TestMultiGPUPriority(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster() // 16 GPUs
	var specs []workload.JobSpec
	// Fill the machine.
	specs = append(specs, mkGPUSpec(t, 1, 0, 1000, 16))
	// A single-GPU job queues first, then a 4-GPU job.
	specs = append(specs, mkGPUSpec(t, 2, 1, 500, 1))
	specs = append(specs, mkGPUSpec(t, 3, 2, 500, 4))
	_, res, _ := runSim(t, cfg, specs)
	// Both start when the filler ends, but the multi-GPU job must not start
	// later than the single-GPU job despite submitting later.
	if res[3].StartSec > res[2].StartSec {
		t.Fatalf("multi-GPU start %v after single-GPU start %v", res[3].StartSec, res[2].StartSec)
	}
}

func TestBackfillFillsGaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	var specs []workload.JobSpec
	// Leave one free GPU: a 15-GPU filler.
	specs = append(specs, mkGPUSpec(t, 1, 0, 10000, 15))
	// A 16-GPU job cannot start; a later 1-GPU job can backfill.
	specs = append(specs, mkGPUSpec(t, 2, 1, 1000, 16))
	specs = append(specs, mkGPUSpec(t, 3, 2, 100, 1))
	_, res, _ := runSim(t, cfg, specs)
	if res[3].WaitSec != 0 {
		t.Fatalf("backfill job waited %v", res[3].WaitSec)
	}
	if res[2].StartSec < 10000 {
		t.Fatalf("16-GPU job started at %v before filler ended", res[2].StartSec)
	}

	// Without backfill, the blocked head stalls the 1-GPU job too.
	strict := cfg
	strict.Policy.BackfillDepth = 0
	var specs2 []workload.JobSpec
	specs2 = append(specs2, mkGPUSpec(t, 1, 0, 10000, 15))
	specs2 = append(specs2, mkGPUSpec(t, 2, 1, 1000, 16))
	specs2 = append(specs2, mkGPUSpec(t, 3, 2, 100, 1))
	_, res2, _ := runSim(t, strict, specs2)
	if res2[3].WaitSec == 0 {
		t.Fatal("strict FIFO should have blocked the small job")
	}
}

func TestDensePlacementOfMultiGPUJobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	specs := []workload.JobSpec{mkGPUSpec(t, 1, 0, 100, 4)}
	_, res, _ := runSim(t, cfg, specs)
	if res[1].NodeSpan != 2 {
		t.Fatalf("4-GPU job spans %d nodes, want 2 (dense)", res[1].NodeSpan)
	}
}

func TestMonitoringIntegration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	mc := monitor.DefaultConfig()
	mc.GPUIntervalSec = 5
	cfg.Monitor = &mc
	cfg.MonitorSeed = 3
	cfg.DetailedJobs = map[int64]bool{2: true}
	specs := []workload.JobSpec{
		mkGPUSpec(t, 1, 0, 600, 1),
		mkGPUSpec(t, 2, 0, 600, 2),
		mkCPUSpec(3, 0, 600, 20, false),
	}
	sim, res, _ := runSim(t, cfg, specs)
	ds := sim.BuildDataset(specs, res, 1)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(ds.GPUJobs()); n != 2 {
		t.Fatalf("GPU jobs in dataset = %d", n)
	}
	// Monitored summaries close to the profile's 50 % SM.
	j := ds.GPUJobs()[0]
	if math.Abs(j.GPU[metrics.SMUtil].Mean-50) > 3 {
		t.Fatalf("monitored SM mean = %v", j.GPU[metrics.SMUtil].Mean)
	}
	// Only the detailed job carries a series.
	if ds.Series[2] == nil || ds.Series[1] != nil {
		t.Fatalf("series retention wrong: %v", ds.Series)
	}
	if len(ds.Series[2].PerGPU) != 2 {
		t.Fatalf("detailed job series has %d GPU streams", len(ds.Series[2].PerGPU))
	}
}

func TestDatasetWithoutMonitorUsesAnalyticSummaries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	specs := []workload.JobSpec{mkGPUSpec(t, 1, 0, 600, 1)}
	sim, res, _ := runSim(t, cfg, specs)
	ds := sim.BuildDataset(specs, res, 1)
	j := ds.GPUJobs()[0]
	if j.GPU[metrics.SMUtil].Mean != 50 {
		t.Fatalf("analytic SM mean = %v", j.GPU[metrics.SMUtil].Mean)
	}
}

func TestEndToEndGeneratedWorkload(t *testing.T) {
	// Run a small generated population through the scheduler and check the
	// Fig. 3b ordering emerges: GPU jobs wait less than CPU jobs.
	gcfg := workload.ScaledConfig(0.01)
	gcfg.Seed = 5
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := gen.GenerateSpecs()

	cfg := DefaultConfig()
	// Shrink the cluster so contention exists at 1 % workload scale.
	cfg.Cluster.Nodes = 6
	sim, res, st, err := func() (*Simulator, map[int64]*Result, Stats, error) {
		sim, err := NewSimulator(cfg)
		if err != nil {
			return nil, nil, Stats{}, err
		}
		r, s, err := sim.Run(specs)
		return sim, r, s, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != len(specs) {
		t.Fatalf("completed %d of %d", st.Completed, len(specs))
	}
	ds := sim.BuildDataset(specs, res, gcfg.DurationDays)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	var gpuWaits, cpuWaits []float64
	for _, j := range ds.GPUJobs() {
		gpuWaits = append(gpuWaits, j.WaitSec)
	}
	for _, j := range ds.CPUJobs() {
		cpuWaits = append(cpuWaits, j.WaitSec)
	}
	if stats.Mean(gpuWaits) > stats.Mean(cpuWaits) {
		t.Fatalf("GPU jobs wait more than CPU jobs: %v vs %v (Fig. 3b ordering broken)",
			stats.Mean(gpuWaits), stats.Mean(cpuWaits))
	}
	if occ := st.MeanGPUOccupancy(); occ <= 0 || occ > 1 {
		t.Fatalf("occupancy = %v", occ)
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	gcfg := workload.ScaledConfig(0.005)
	gcfg.Seed = 11
	gen, _ := workload.NewGenerator(gcfg)
	specs := gen.GenerateSpecs()
	run := func() map[int64]*Result {
		cfg := DefaultConfig()
		cfg.Cluster.Nodes = 10
		_, res, _ := runSim(t, cfg, specs)
		return res
	}
	a, b := run(), run()
	for id, ra := range a {
		rb := b[id]
		if ra.StartSec != rb.StartSec || ra.WaitSec != rb.WaitSec {
			t.Fatalf("job %d differs across runs", id)
		}
	}
}

func TestReservationPreventsBackfillStarvation(t *testing.T) {
	// A 16-GPU job arrives behind a continuous stream of 1-GPU jobs that
	// would otherwise recycle every freed device forever. With the
	// reservation guard, the big job eventually runs; without it, it
	// starves until the stream dries up.
	build := func() []workload.JobSpec {
		var specs []workload.JobSpec
		id := int64(1)
		// Initial fill: 16 one-GPU jobs.
		for i := 0; i < 16; i++ {
			specs = append(specs, mkGPUSpec(t, id, 0, 2000, 1))
			id++
		}
		// The big job arrives.
		specs = append(specs, mkGPUSpec(t, id, 10, 1000, 16))
		bigID := id
		id++
		// A long stream of small jobs arriving faster than they finish.
		for i := 0; i < 300; i++ {
			specs = append(specs, mkGPUSpec(t, id, 20+float64(i)*100, 2000, 1))
			id++
		}
		_ = bigID
		return specs
	}
	run := func(reservationAge float64) float64 {
		cfg := DefaultConfig()
		cfg.Cluster = smallCluster()
		cfg.Policy.ReservationAgeSec = reservationAge
		_, res, _ := runSim(t, cfg, build())
		return res[17].WaitSec // the 16-GPU job
	}
	guarded := run(3600)
	unguarded := run(0)
	if guarded >= unguarded {
		t.Fatalf("reservation did not help: guarded %v vs unguarded %v", guarded, unguarded)
	}
	t.Logf("16-GPU job wait: guarded %.0fs vs unguarded %.0fs", guarded, unguarded)
}
