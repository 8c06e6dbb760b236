// Scheduler-scaling benchmarks (PR 2): Benchmark{Schedule,Simulate,Replicate}
// time the discrete-event hot path at 10k/100k/500k-job scale.
// Commit f895064 recorded this trio (`git show f895064:BENCH_PR2.json`)
// with a speedup column against the pre-index baseline of the same commit
// (bench/baseline_pr2.json), so the free-capacity index and the
// incremental schedule() loop carry a measured claim rather than an
// asserted one.
package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// paperJobs is the paper's full population; benchmark scales are expressed
// as absolute job counts and mapped back to generator scale factors.
const paperJobs = 74820

// schedSizes are the population sizes the PR2 benchmarks sweep.
var schedSizes = []struct {
	name string
	jobs int
}{
	{"jobs=10k", 10_000},
	{"jobs=100k", 100_000},
	{"jobs=500k", 500_000},
}

// schedPop is one cached benchmark population: the feasible paper-shaped
// arrival stream for a proportionally scaled cluster, plus a 4x-compressed
// variant that keeps a deep queue on a half-size cluster (the regime where
// the policy loop, not the event heap, dominates).
type schedPop struct {
	nodes          int
	specs          []workload.JobSpec
	contendedNodes int
	contended      []workload.JobSpec
}

var schedPopCache sync.Map // jobs -> *schedPop

func schedPopulation(b *testing.B, jobs int) *schedPop {
	b.Helper()
	if v, ok := schedPopCache.Load(jobs); ok {
		return v.(*schedPop)
	}
	factor := float64(jobs) / paperJobs
	gcfg := workload.ScaledConfig(factor)
	gcfg.TotalJobs = jobs
	gcfg.Seed = 7
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	raw := gen.GenerateSpecs()

	p := &schedPop{nodes: scaledNodes(factor, 4)}
	cfg := slurm.DefaultConfig()
	cfg.Cluster.Nodes = p.nodes
	p.specs, _ = slurm.Feasible(cfg, raw)

	// Contended variant: arrivals compressed 4x onto half the nodes, so the
	// pending queue stays deep and schedule() passes dominate the run.
	p.contendedNodes = scaledNodes(factor/2, 2)
	ccfg := slurm.DefaultConfig()
	ccfg.Cluster.Nodes = p.contendedNodes
	dense := make([]workload.JobSpec, len(raw))
	copy(dense, raw)
	for i := range dense {
		dense[i].SubmitSec *= 0.25
	}
	p.contended, _ = slurm.Feasible(ccfg, dense)

	schedPopCache.Store(jobs, p)
	return p
}

// settleHeap forces a collection between population setup and the timed
// region. Building (and caching) a multi-hundred-MB population leaves the
// pacer with a swollen heap goal and unpaid assist debt; without this the
// first timed run after a build can pay several multiples of its real cost
// in GC assists, which made combined runs of several benchmarks report 3-4x
// the isolated-run time for the same benchmark.
func settleHeap(b *testing.B) {
	b.Helper()
	runtime.GC()
	b.ResetTimer()
}

// scaledNodes scales the 224-node machine with the workload.
func scaledNodes(factor float64, min int) int {
	n := int(224*factor + 0.5)
	if n < min {
		n = min
	}
	return n
}

// BenchmarkSimulate times slurm.Simulate on the paper-shaped arrival stream:
// the end-to-end discrete-event run (event heap, policy loop, allocation,
// release) at each population size. This is the benchmark the PR2 acceptance
// criterion reads: ≥3x over the pre-index baseline at jobs=100k.
func BenchmarkSimulate(b *testing.B) {
	for _, sz := range schedSizes {
		b.Run(sz.name, func(b *testing.B) {
			p := schedPopulation(b, sz.jobs)
			cfg := slurm.DefaultConfig()
			cfg.Cluster.Nodes = p.nodes
			settleHeap(b)
			var st slurm.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = slurm.Simulate(cfg, p.specs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Completed)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			b.ReportMetric(float64(st.MaxQueueLen), "max-queue")
		})
	}
}

// BenchmarkSimulateFaults times the same end-to-end run with the full fault
// machinery live (node crashes, drains, per-GPU fatals, requeue/backoff), so
// the cost of failure-aware scheduling is a measured number. There is no
// pre-fault baseline for this name; run it next to BenchmarkSimulate, the
// empty-plan guard.
func BenchmarkSimulateFaults(b *testing.B) {
	for _, sz := range schedSizes {
		b.Run(sz.name, func(b *testing.B) {
			p := schedPopulation(b, sz.jobs)
			cfg := slurm.DefaultConfig()
			cfg.Cluster.Nodes = p.nodes
			cfg.Faults = faults.Plan{
				NodeCrashMTBFHours: 720,
				NodeDrainMTBFHours: 1440,
				MeanRepairHours:    2,
				GPUFatalMTBFHours:  2000,
			}
			cfg.FaultSeed = 7
			cfg.Requeue = slurm.DefaultRequeuePolicy()
			settleHeap(b)
			var st slurm.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = slurm.Simulate(cfg, p.specs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Completed)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			b.ReportMetric(float64(st.GPUFatals+st.NodeCrashes+st.NodeDrains), "faults")
		})
	}
}

// BenchmarkSchedule isolates the scheduler under queue pressure: the same
// population with arrivals compressed 4x onto a half-size cluster, so every
// event triggers a pass over a deep pending queue. Speedups here come from
// the incremental schedule() loop (persistent priority order, blocked-verdict
// cache) more than from the allocation index.
func BenchmarkSchedule(b *testing.B) {
	for _, sz := range schedSizes {
		b.Run(sz.name, func(b *testing.B) {
			p := schedPopulation(b, sz.jobs)
			cfg := slurm.DefaultConfig()
			cfg.Cluster.Nodes = p.contendedNodes
			settleHeap(b)
			var st slurm.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = slurm.Simulate(cfg, p.contended)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Completed)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			b.ReportMetric(float64(st.MaxQueueLen), "max-queue")
		})
	}
}

// BenchmarkPredictSched prices prediction-aware backfill (PR 7) on the
// contended population, where every scheduling pass walks a deep pending
// queue and the predictor's estimate/shadow/refinement state is exercised on
// every reservation. Compare against BenchmarkSchedule in the same run: that
// benchmark is the conservative fence on identical inputs, so the delta IS
// the prediction overhead. Commit 2719316's BENCH_PR7.json also reran the
// PR 2 trio, whose unchanged numbers guard the disabled path (nil
// predictor, zero overhead).
func BenchmarkPredictSched(b *testing.B) {
	for _, sz := range schedSizes {
		b.Run(sz.name, func(b *testing.B) {
			p := schedPopulation(b, sz.jobs)
			cfg := slurm.DefaultConfig()
			cfg.Cluster.Nodes = p.contendedNodes
			cfg.Policy.Predict = slurm.DefaultPredictPolicy()
			settleHeap(b)
			var st slurm.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = slurm.Simulate(cfg, p.contended)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Completed)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			b.ReportMetric(float64(st.PredictedBackfills), "pred-backfills")
			scored := st.PredictHits + st.PredictMisses
			if scored > 0 {
				b.ReportMetric(float64(st.PredictHits)/float64(scored), "hit-rate")
			}
		})
	}
}

// shardedBenchSizes are the population sizes BenchmarkSimulateSharded sweeps:
// the PR2 500k point (comparable against the heap-spec baseline) plus a 5M
// point only the sharded mode makes tractable in one sitting.
var shardedBenchSizes = []struct {
	name string
	jobs int
}{
	{"jobs=500k", 500_000},
	{"jobs=5M", 5_000_000},
}

// shardedBenchPop is one cached sharded-benchmark population: just the
// feasible arrival stream, without schedPop's contended variant (at 5M jobs
// the 4x-compressed copy would double a multi-gigabyte population for a
// benchmark that never reads it).
type shardedBenchPop struct {
	nodes int
	specs []workload.JobSpec
}

var shardedBenchCache sync.Map // jobs -> *shardedBenchPop

func shardedBenchPopulation(b *testing.B, jobs int) *shardedBenchPop {
	b.Helper()
	if jobs <= 500_000 {
		p := schedPopulation(b, jobs)
		return &shardedBenchPop{nodes: p.nodes, specs: p.specs}
	}
	if v, ok := shardedBenchCache.Load(jobs); ok {
		return v.(*shardedBenchPop)
	}
	factor := float64(jobs) / paperJobs
	gcfg := workload.ScaledConfig(factor)
	gcfg.TotalJobs = jobs
	gcfg.Seed = 7
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	p := &shardedBenchPop{nodes: scaledNodes(factor, 4)}
	cfg := slurm.DefaultConfig()
	cfg.Cluster.Nodes = p.nodes
	p.specs, _ = slurm.Feasible(cfg, gen.GenerateSpecs())
	shardedBenchCache.Store(jobs, p)
	return p
}

// BenchmarkSimulateSharded times SimulateSharded across shard counts 1/2/4/8
// with one worker per shard. shards=1 is byte-identical to Simulate and prices
// the mode's dispatch overhead; higher counts measure partition scaling. On a
// single-core host the shard goroutines serialize, so wall-clock gains there
// come only from each shard's smaller queue — the shard-imbalance metric
// (max/min events per shard) is what predicts multi-core speedup.
func BenchmarkSimulateSharded(b *testing.B) {
	for _, sz := range shardedBenchSizes {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", sz.name, shards), func(b *testing.B) {
				p := shardedBenchPopulation(b, sz.jobs)
				cfg := slurm.DefaultConfig()
				cfg.Cluster.Nodes = p.nodes
				sh := slurm.Sharding{Shards: shards, Workers: shards}
				settleHeap(b)
				var run *slurm.ShardedRun
				for i := 0; i < b.N; i++ {
					var err error
					run, err = slurm.SimulateSharded(context.Background(), cfg, p.specs, sh)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(run.Merged.Completed)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
				minE, maxE := run.ShardStats[0].EventsProcessed, run.ShardStats[0].EventsProcessed
				for _, st := range run.ShardStats[1:] {
					if st.EventsProcessed < minE {
						minE = st.EventsProcessed
					}
					if st.EventsProcessed > maxE {
						maxE = st.EventsProcessed
					}
				}
				if minE > 0 {
					b.ReportMetric(float64(maxE)/float64(minE), "shard-imbalance")
				}
				b.ReportMetric(float64(run.Windows), "sync-windows")
			})
		}
	}
}

// BenchmarkReplicate times the replication engine fanning four seeded
// generate→schedule→characterize pipelines, the workload the ROADMAP's
// what-if sweeps put on the simulator. 500k is omitted: replication cost is
// generation-dominated there and the 100k point already covers the claim.
func BenchmarkReplicate(b *testing.B) {
	for _, sz := range schedSizes {
		if sz.jobs > 100_000 {
			continue
		}
		sz := sz
		b.Run(sz.name, func(b *testing.B) {
			factor := float64(sz.jobs) / paperJobs
			gcfg := workload.ScaledConfig(factor)
			gcfg.TotalJobs = sz.jobs
			scfg := slurm.DefaultConfig()
			scfg.Cluster.Nodes = scaledNodes(factor, 4)
			exp := engine.Experiment{Gen: gcfg, Sim: scfg}
			const reps = 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch, err := engine.Run(context.Background(),
					engine.Config{RootSeed: 7, Reps: reps}, exp.Replicator())
				if err != nil {
					b.Fatal(err)
				}
				if got := batch.Completed(); got != reps {
					b.Fatalf("completed %d of %d: %v", got, reps, batch.FirstErr())
				}
			}
			b.ReportMetric(float64(reps)*float64(b.N)/b.Elapsed().Seconds(), "reps/s")
		})
	}
}
