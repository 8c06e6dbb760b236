package slurm

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// The scheduler-invariant property tests: across randomized seeds and every
// policy combination, the completed schedule must conserve resources. The
// audits work purely from Results (StartSec/EndSec/GPUs/Shares), so they
// would catch a scheduler that books resources it never owned, not just one
// that crashes.

// interval is one job's tenancy of a resource.
type interval struct {
	jobID      int64
	start, end float64
}

// auditResults runs every schedule-wide invariant: non-negative waits,
// consistent timestamps, no GPU double-booking, and per-node core/memory
// capacity conservation.
func auditResults(t *testing.T, cfg Config, specs []workload.JobSpec, results map[int64]*Result) {
	t.Helper()
	const eps = 1e-9

	byDevice := map[gpu.DeviceID][]interval{}
	type usage struct {
		at    float64
		cores int
		mem   float64
		// release events sort before acquires at equal time, matching the
		// scheduler's finish-before-submit event order.
		release bool
	}
	byNode := map[int][]usage{}

	for i := range specs {
		sp := &specs[i]
		res := results[sp.ID]
		if res == nil {
			t.Fatalf("job %d has no result", sp.ID)
		}
		if res.WaitSec < 0 {
			t.Fatalf("job %d: negative wait %v", sp.ID, res.WaitSec)
		}
		if diff := res.StartSec - sp.SubmitSec - res.WaitSec; diff > eps || diff < -eps {
			t.Fatalf("job %d: WaitSec %v != StartSec %v - SubmitSec %v",
				sp.ID, res.WaitSec, res.StartSec, sp.SubmitSec)
		}
		if diff := res.EndSec - res.StartSec - sp.RunSec; diff > eps || diff < -eps {
			t.Fatalf("job %d: EndSec %v != StartSec %v + RunSec %v",
				sp.ID, res.EndSec, res.StartSec, sp.RunSec)
		}
		if sp.IsGPU() && len(res.GPUs) != sp.NumGPUs {
			t.Fatalf("job %d: granted %d GPUs, requested %d", sp.ID, len(res.GPUs), sp.NumGPUs)
		}
		for _, id := range res.GPUs {
			byDevice[id] = append(byDevice[id], interval{sp.ID, res.StartSec, res.EndSec})
		}
		for _, sh := range res.Shares {
			byNode[sh.Node] = append(byNode[sh.Node],
				usage{at: res.StartSec, cores: sh.Cores, mem: sh.MemGB},
				usage{at: res.EndSec, cores: -sh.Cores, mem: -sh.MemGB, release: true})
		}
	}

	// No GPU serves two concurrent jobs: back-to-back tenancy (end == next
	// start) is legal, overlap is not.
	for id, ivs := range byDevice {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end-eps {
				t.Fatalf("device %s double-booked: job %d [%v,%v) overlaps job %d [%v,%v)",
					id, ivs[i-1].jobID, ivs[i-1].start, ivs[i-1].end,
					ivs[i].jobID, ivs[i].start, ivs[i].end)
			}
		}
	}

	// Node capacity sweep: running core/memory occupancy must never exceed
	// the node, with releases applied before same-instant acquires.
	for node, events := range byNode {
		sort.Slice(events, func(a, b int) bool {
			if events[a].at != events[b].at {
				return events[a].at < events[b].at
			}
			return events[a].release && !events[b].release
		})
		cores, mem := 0, 0.0
		for _, e := range events {
			cores += e.cores
			mem += e.mem
			if cores > cfg.Cluster.CoresPerNode {
				t.Fatalf("node %d over capacity at t=%v: %d cores > %d",
					node, e.at, cores, cfg.Cluster.CoresPerNode)
			}
			if mem > cfg.Cluster.MemGBPerNode+eps {
				t.Fatalf("node %d over capacity at t=%v: %v GB > %v",
					node, e.at, mem, cfg.Cluster.MemGBPerNode)
			}
			if cores < 0 || mem < -eps {
				t.Fatalf("node %d released more than it held at t=%v", node, e.at)
			}
		}
	}
}

// contended builds a randomized population that actually queues on the test
// cluster: a generated mix with arrivals compressed so jobs contend for the
// 6-node machine.
func contended(t *testing.T, seed uint64, cfg Config) []workload.JobSpec {
	t.Helper()
	gcfg := workload.ScaledConfig(0.01)
	gcfg.Seed = seed
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := gen.GenerateSpecs()
	for i := range specs {
		specs[i].SubmitSec *= 0.05
	}
	specs, _ = Feasible(cfg, specs)
	return specs
}

func TestSchedulerInvariantsRandomized(t *testing.T) {
	policies := []Policy{
		DefaultPolicy(),
		{Colocate: true, MultiGPUPriority: false, BackfillDepth: 0},
		{Colocate: false, MultiGPUPriority: true, BackfillDepth: 256},
		{Colocate: true, MultiGPUPriority: true, BackfillDepth: 4, ReservationAgeSec: 600},
	}
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		for pi, pol := range policies {
			t.Run(fmt.Sprintf("seed=%d/policy=%d", seed, pi), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Cluster.Nodes = 6
				cfg.Policy = pol
				specs := contended(t, seed, cfg)
				_, results, st := runSim(t, cfg, specs)
				if st.Completed != len(specs) {
					t.Fatalf("completed %d of %d feasible jobs", st.Completed, len(specs))
				}
				auditResults(t, cfg, specs, results)
			})
		}
	}
}

// TestAblationNeverSharesNodes pins the -colocate=false contract: every GPU
// job reserves whole idle nodes, so no other job's share — GPU or CPU —
// overlaps its tenancy on any of its nodes.
func TestAblationNeverSharesNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 6
	cfg.Policy.Colocate = false

	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			specs := contended(t, seed, cfg)
			_, results, _ := runSim(t, cfg, specs)
			auditResults(t, cfg, specs, results)

			type tenancy struct {
				jobID      int64
				gpu        bool
				start, end float64
			}
			byNode := map[int][]tenancy{}
			for i := range specs {
				res := results[specs[i].ID]
				for _, sh := range res.Shares {
					byNode[sh.Node] = append(byNode[sh.Node],
						tenancy{specs[i].ID, specs[i].IsGPU(), res.StartSec, res.EndSec})
				}
			}
			for node, ts := range byNode {
				for _, a := range ts {
					if !a.gpu {
						continue
					}
					for _, b := range ts {
						if a.jobID == b.jobID {
							continue
						}
						if b.start < a.end-1e-9 && a.start < b.end-1e-9 {
							t.Fatalf("node %d shared under ablation: GPU job %d [%v,%v) with job %d [%v,%v)",
								node, a.jobID, a.start, a.end, b.jobID, b.start, b.end)
						}
					}
				}
			}
		})
	}
}

// TestFeasibleGate pins the submit-time rejection behavior: oversized
// requests are rejected rather than deadlocking the drain, malformed ones
// (negative core counts, which cluster.TryAllocate refuses) rather than
// aborting the run, and every accepted job completes.
func TestFeasibleGate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 4 // 8 GPUs, 160 cores
	negSlice := mkGPUSpec(t, 7, 0, 100, 1)
	negSlice.CoresPerGPU = -4
	specs := []workload.JobSpec{
		mkGPUSpec(t, 1, 0, 100, 2),
		mkGPUSpec(t, 2, 0, 100, 9),       // exceeds total GPUs
		mkCPUSpec(3, 0, 100, 200, false), // exceeds total cores
		mkCPUSpec(4, 0, 100, 40, true),   // exactly one node: fine
		mkCPUSpec(5, 0, 100, 161, true),  // exceeds exclusive capacity
		mkGPUSpec(t, 6, 0, 100, 8),       // exactly the whole machine
		negSlice,                         // negative cores per GPU
		mkCPUSpec(8, 0, 100, -1, false),  // negative cores
	}
	ok, rejected := Feasible(cfg, specs)
	if len(rejected) != 5 {
		t.Fatalf("rejected %d jobs, want 5: %v", len(rejected), rejected)
	}
	for _, r := range rejected {
		if r.ID != 2 && r.ID != 3 && r.ID != 5 && r.ID != 7 && r.ID != 8 {
			t.Fatalf("wrongly rejected job %d", r.ID)
		}
	}
	_, results, st := runSim(t, cfg, ok)
	if st.Completed != len(ok) {
		t.Fatalf("completed %d of %d accepted jobs", st.Completed, len(ok))
	}
	auditResults(t, cfg, ok, results)
}

// TestSchedulerInvariantsUnderFailureStorms runs randomized crash/drain/repair
// storms over a contended workload and checks conservation end to end: no
// double-free (any Release error aborts the run), no lost capacity after the
// final repair, and drain completion — the run never ends with jobs pending
// while retries remain. The per-interval WaitSec/EndSec identities of
// auditResults do not hold for requeued jobs, so the storm audit works from
// the cluster's own invariant checker plus the completion accounting.
func TestSchedulerInvariantsUnderFailureStorms(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cluster.Nodes = 6
			cfg.Faults = faults.Plan{
				NodeCrashMTBFHours: 24,
				NodeDrainMTBFHours: 48,
				MeanRepairHours:    2,
				GPUFatalMTBFHours:  50,
			}
			cfg.FaultSeed = seed
			cfg.Requeue = RequeuePolicy{MaxRetries: 20, HoldSec: 60, HoldBackoff: 2}
			specs := contended(t, seed, cfg)

			sim, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			results, st, err := sim.Run(specs)
			if err != nil {
				t.Fatalf("storm run failed (drain did not complete): %v", err)
			}
			if st.NodeCrashes == 0 || st.NodeDrains == 0 || st.GPUFatals == 0 {
				t.Fatalf("storm too quiet: %d crashes, %d drains, %d fatals",
					st.NodeCrashes, st.NodeDrains, st.GPUFatals)
			}
			// Every job is accounted for: completed or abandoned, never lost.
			if st.Completed+st.JobsAbandoned != len(specs) {
				t.Fatalf("completed %d + abandoned %d != %d jobs",
					st.Completed, st.JobsAbandoned, len(specs))
			}
			if st.Completed != len(results) {
				t.Fatalf("stats completed %d != %d results", st.Completed, len(results))
			}
			// Capacity conservation after the storm: every outage that fired
			// was repaired, every node is back up, and the free pool equals
			// the full machine — nothing double-freed, nothing leaked.
			for n := 0; n < cfg.Cluster.Nodes; n++ {
				if s := sim.cluster.NodeState(n); s != cluster.NodeUp {
					t.Fatalf("node %d still %v after drain", n, s)
				}
			}
			if free, total := sim.cluster.FreeGPUs(), cfg.Cluster.TotalGPUs(); free != total {
				t.Fatalf("free GPUs %d != total %d after full repair", free, total)
			}
			if sim.cluster.LiveAllocations() != 0 {
				t.Fatalf("%d allocations survive the drain", sim.cluster.LiveAllocations())
			}
			if err := sim.cluster.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Requeued jobs still satisfy the weak result identities: waits
			// non-negative and every completed job's interval well-formed.
			for _, res := range results {
				if res.WaitSec < 0 || res.EndSec <= res.StartSec {
					t.Fatalf("job %d: malformed result %+v", res.JobID, res)
				}
			}
		})
	}
}
