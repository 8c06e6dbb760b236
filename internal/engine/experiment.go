package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/slurm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Experiment is the standard replicated pipeline: synthesize a population,
// schedule it on the simulated cluster, characterize the resulting dataset.
// The Seed fields of both configs are overridden per replication with the
// replication's private stream seed.
type Experiment struct {
	Gen workload.Config
	Sim slurm.Config
	// Sharding, when Shards>1, runs each replication through the sharded
	// simulator (slurm.SimulateSharded): the replica's cluster is partitioned
	// into independent node groups that execute concurrently under
	// conservative time-window synchronization. Replication samples are
	// bit-identical for any Sharding.Workers value, so the engine's
	// worker-count determinism guarantee extends through the sharded path.
	Sharding slurm.Sharding
}

// Replicator returns the engine-compatible closure for the experiment. Each
// call builds its own generator and simulator, so replications share no
// mutable state.
func (e Experiment) Replicator() Replicator {
	run := e.DatasetReplicator()
	return func(ctx context.Context, rep int, seed uint64) (Sample, error) {
		_, sm, err := run(ctx, rep, seed)
		return sm, err
	}
}

// DatasetReplicator returns the streaming form of the experiment pipeline:
// the same synthesis → simulation → characterization chain, but handing
// back the replication's dataset for RunStream to append into a segmented
// store alongside the scalar sample.
func (e Experiment) DatasetReplicator() DatasetReplicator {
	return func(ctx context.Context, rep int, seed uint64) (*trace.Dataset, Sample, error) {
		gcfg := e.Gen
		gcfg.Seed = seed
		gen, err := workload.NewGenerator(gcfg)
		if err != nil {
			return nil, nil, fmt.Errorf("replication %d: %w", rep, err)
		}
		specs := gen.GenerateSpecs()
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		scfg := e.Sim
		if scfg.Monitor != nil {
			scfg.MonitorSeed = seed
		}
		if !scfg.Faults.Empty() {
			// Each replication draws its failure streams from its own seed;
			// the faults package salts them away from the workload streams.
			scfg.FaultSeed = seed
		}
		// Submit-time feasibility gate: jobs exceeding the (possibly down-
		// scaled) cluster's capacity are rejected as Slurm would, not left
		// to deadlock the drain.
		specs, rejected := slurm.Feasible(scfg, specs)
		var (
			st slurm.Stats
			ds *trace.Dataset
		)
		if e.Sharding.Shards > 1 {
			run, err := slurm.SimulateSharded(ctx, scfg, specs, e.Sharding)
			if err != nil {
				return nil, nil, fmt.Errorf("replication %d: %w", rep, err)
			}
			// Shard-level rejections (jobs no sub-cluster can hold) count
			// with the submit-time rejections.
			rejected = append(rejected, run.Rejected...)
			st = run.Merged
			ds = run.BuildDataset(gcfg.DurationDays)
		} else {
			sim, err := slurm.NewSimulator(scfg)
			if err != nil {
				return nil, nil, fmt.Errorf("replication %d: %w", rep, err)
			}
			results, rst, err := sim.RunContext(ctx, specs)
			if err != nil {
				return nil, nil, fmt.Errorf("replication %d: %w", rep, err)
			}
			st = rst
			ds = sim.BuildDataset(specs, results, gcfg.DurationDays)
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sm := Characterize(ds, st)
		sm["jobs_rejected"] = float64(len(rejected))
		if !scfg.Faults.Empty() {
			// Fault metrics appear only under a fault plan, so fault-free
			// samples — and the golden figures built from them — keep their
			// exact key set.
			sm["node_crashes"] = float64(st.NodeCrashes)
			sm["node_drains"] = float64(st.NodeDrains)
			sm["gpu_fatals"] = float64(st.GPUFatals)
			sm["requeues"] = float64(st.Requeues)
			sm["jobs_abandoned"] = float64(st.JobsAbandoned)
			sm["lost_gpu_hours"] = st.LostGPUHours
			sm["recovered_gpu_hours"] = st.RecoveredGPUHours
			sm["down_gpu_hours"] = st.DownGPUHours
			sm["availability_mean"] = st.Availability()
			sm["goodput_frac"] = st.GoodputFraction()
		}
		if len(scfg.MonitorFaults) > 0 {
			sm["monitor_dropped_samples"] = float64(st.MonitorDropped)
			sm["monitor_stalled_jobs"] = float64(st.MonitorStalled)
		}
		return ds, sm, nil
	}
}

// Characterize extracts the standard metric sample from one replication's
// dataset and scheduler stats: the Fig. 3b queue-wait statistics, §V's
// wait-by-size medians, the Fig. 4a utilization medians, the §VI lifecycle
// mix, and the scheduler aggregates. The dataset's columnar index is built
// once and shared by every analysis, so a replication pays for the
// projection and each sort a single time.
func Characterize(ds *trace.Dataset, st slurm.Stats) Sample {
	cols := ds.Columns()
	w := core.Waits(cols)
	u := core.Utilization(cols)
	lc := core.Lifecycle(cols)

	// Sized for every key assigned below: the 8 literals, 5 wait stats,
	// 4 size classes and 2 per lifecycle category — avoids rehashing the
	// map once per replication on the hot merge path.
	sm := make(Sample, 17+2*int(trace.NumCategories))
	sm["jobs_completed"] = float64(st.Completed)
	sm["max_queue_len"] = float64(st.MaxQueueLen)
	sm["mean_gpu_occupancy"] = st.MeanGPUOccupancy()
	sm["gpu_wait_under_1min_frac"] = w.GPUWaitUnder1MinFrac
	sm["gpu_wait_pct_under_2frac"] = w.GPUWaitPctUnder2Frac
	sm["sm_util_median_pct"] = u.SM.P50
	sm["mem_util_median_pct"] = u.Mem.P50
	sm["memsize_median_pct"] = u.MemSize.P50

	gpuWaits := cols.WaitSec.Sorted()
	cpuWaits := cols.CPUWaitSec.Sorted()
	sm["gpu_wait_median_s"] = stats.QuantileSorted(gpuWaits, 0.5)
	sm["gpu_wait_p90_s"] = stats.QuantileSorted(gpuWaits, 0.9)
	sm["cpu_wait_median_s"] = stats.QuantileSorted(cpuWaits, 0.5)
	sm["cpu_wait_p90_s"] = stats.QuantileSorted(cpuWaits, 0.9)
	sm["wait_median_gap_s"] = sm["cpu_wait_median_s"] - sm["gpu_wait_median_s"]

	for c := 0; c < 4; c++ {
		label := strings.NewReplacer(" ", "", "-", "_", ">", "over").Replace(core.SizeClassLabel(c))
		sm["wait_median_"+strings.ToLower(label)+"_s"] = w.MedianWaitBySize[c]
	}
	for c := trace.Category(0); c < trace.NumCategories; c++ {
		sm["lifecycle_"+c.String()+"_job_frac"] = lc.JobShare[c]
		sm["lifecycle_"+c.String()+"_hour_frac"] = lc.HourShare[c]
	}
	return sm
}
