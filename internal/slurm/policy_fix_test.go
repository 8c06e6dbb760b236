package slurm

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// Regression tests pinning the two scheduler policy fixes: the BackfillDepth
// off-by-one (a pass must stop once depth jobs are blocked, not depth+1) and
// the reservation starvation hole (the guard must arm for an aged GPU job
// anywhere in the queue, and while it holds, CPU jobs must not take
// resources on nodes whose freed GPUs are being accumulated).

// TestBackfillDepthSemantics pins the documented meaning of BackfillDepth N:
// a scheduling pass stops as soon as N jobs have been found blocked. With
// two blocked GPU jobs ahead of a small CPU job, the CPU job backfills only
// when the depth lets the pass scan past both blocked jobs.
func TestBackfillDepthSemantics(t *testing.T) {
	cases := []struct {
		depth        int
		wantCPUStart float64
	}{
		{0, 1000}, // strict FIFO: nothing backfills
		{1, 1000}, // pass stops at the first blocked job
		{2, 1000}, // pass stops at the second blocked job — the old off-by-one let the CPU job through here
		{3, 3},    // pass scans past both blocked jobs; CPU job backfills at submit
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("depth=%d", tc.depth), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cluster = smallCluster()
			cfg.Cluster.Nodes = 1 // 2 GPUs, 40 cores
			cfg.Policy = Policy{Colocate: true, BackfillDepth: tc.depth}
			specs := []workload.JobSpec{
				mkGPUSpec(t, 1, 0, 1000, 2), // occupies both GPUs until t=1000
				mkGPUSpec(t, 2, 1, 500, 1),  // blocked behind it
				mkGPUSpec(t, 3, 2, 500, 1),  // blocked behind it
				mkCPUSpec(4, 3, 100, 4, false),
			}
			_, res, st := runSim(t, cfg, specs)
			if st.Completed != len(specs) {
				t.Fatalf("completed %d of %d", st.Completed, len(specs))
			}
			for _, gpuJob := range []int64{2, 3} {
				if got := res[gpuJob].StartSec; got != 1000 {
					t.Fatalf("blocked GPU job %d started at %v, want 1000", gpuJob, got)
				}
			}
			if got := res[4].StartSec; got != tc.wantCPUStart {
				t.Fatalf("CPU job started at %v, want %v", got, tc.wantCPUStart)
			}
		})
	}
}

// TestReservationArmsBehindBlockedCPUJob pins the arming fix: the guard must
// arm for an aged blocked GPU job even when it is not the first blocked job
// in the pass. A blocked exclusive CPU job sits ahead of a 14-GPU job in the
// queue; under the old blocked==1 condition the guard never armed and a
// steady stream of single-GPU arrivals backfilled every freed device,
// starving the large job until the stream drained (t >= 10000). With the
// fix, the stream is held off and the large job starts as soon as the
// initial occupants have finished.
func TestReservationArmsBehindBlockedCPUJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster() // 8 nodes, 16 GPUs
	cfg.Policy = Policy{Colocate: true, MultiGPUPriority: false, BackfillDepth: 256, ReservationAgeSec: 600}

	var specs []workload.JobSpec
	// Sixteen 1-GPU occupants fill the machine, finishing one by one from
	// t=2000 to t=3500 (two per node: node k drains at 2000+200k+100).
	for i := int64(0); i < 16; i++ {
		specs = append(specs, mkGPUSpec(t, 1+i, 0, 2000+100*float64(i), 1))
	}
	// A whole-node CPU job that stays blocked until some node is fully idle.
	specs = append(specs, mkCPUSpec(100, 5, 20000, 40, true))
	// The large GPU job: needs 14 of the 16 GPUs, ages past the guard at
	// t=610 while sitting behind the blocked CPU job.
	specs = append(specs, mkGPUSpec(t, 200, 10, 1000, 14))
	// Backfill pressure: single-GPU arrivals every 100 s through t=10000.
	for i := int64(0); i < 100; i++ {
		specs = append(specs, mkGPUSpec(t, 300+i, 100+100*float64(i), 2000, 1))
	}

	_, res, st := runSim(t, cfg, specs)
	if st.Completed != len(specs) {
		t.Fatalf("completed %d of %d", st.Completed, len(specs))
	}
	// The CPU job takes the first fully drained node (node 0 at t=2100); the
	// reservation then accumulates the remaining 14 GPUs for the large job,
	// which starts the moment the last occupant finishes.
	if got := res[100].StartSec; got != 2100 {
		t.Fatalf("exclusive CPU job started at %v, want 2100", got)
	}
	if got := res[200].StartSec; got != 3500 {
		t.Fatalf("large GPU job started at %v, want 3500 (reservation failed to arm)", got)
	}
}

// TestReservationHoldsCoresAgainstSharedCPUJob pins the second half of the
// starvation fix: while a reservation is accumulating freed GPUs, a shared
// CPU job must not drain the cores of the nodes being held. Node 0 frees its
// GPUs at t=3600 for an aged 4-GPU job that also needs 18 cores per GPU;
// without the fix, a 34-core CPU job submitted at t=4000 lands on node 0 and
// the GPU job cannot start until it finishes (t=24000).
func TestReservationHoldsCoresAgainstSharedCPUJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Cluster.Nodes = 2 // 4 GPUs, 80 cores
	cfg.Policy = Policy{Colocate: true, MultiGPUPriority: true, BackfillDepth: 256, ReservationAgeSec: 600}

	bigGPU := mkGPUSpec(t, 3, 1, 1000, 4)
	bigGPU.CoresPerGPU = 18 // 36 cores per node: needs nearly whole nodes
	specs := []workload.JobSpec{
		mkGPUSpec(t, 1, 0, 3600, 2), // node 0, frees its GPUs early
		mkGPUSpec(t, 2, 0, 7200, 2), // node 1
		bigGPU,                      // blocked, aged at t=601
		mkCPUSpec(4, 4000, 20000, 34, false),
	}
	_, res, st := runSim(t, cfg, specs)
	if st.Completed != len(specs) {
		t.Fatalf("completed %d of %d", st.Completed, len(specs))
	}
	if got := res[3].StartSec; got != 7200 {
		t.Fatalf("reserved GPU job started at %v, want 7200 (CPU job took reserved cores)", got)
	}
	if got := res[4].StartSec; got != 8200 {
		t.Fatalf("shared CPU job started at %v, want 8200", got)
	}
}

// TestReservationBlocksExclusiveCPUJob covers the exclusive-CPU variant of
// the same hole: while a reservation holds, a whole-node CPU job must not
// take an idle node — on a GPU machine every idle node has free GPUs the
// reservation is counting on. Without the fix the CPU job grabs the one idle
// node at t=650 and the aged 4-GPU job waits for it to finish (t=10650).
func TestReservationBlocksExclusiveCPUJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	cfg.Cluster.Nodes = 2
	cfg.Policy = Policy{Colocate: true, MultiGPUPriority: true, BackfillDepth: 256, ReservationAgeSec: 600}

	specs := []workload.JobSpec{
		mkGPUSpec(t, 1, 0, 5000, 2), // node 0; node 1 stays idle
		mkGPUSpec(t, 2, 1, 1000, 4), // blocked (needs both nodes), aged at t=601
		mkCPUSpec(3, 650, 10000, 40, true),
	}
	_, res, st := runSim(t, cfg, specs)
	if st.Completed != len(specs) {
		t.Fatalf("completed %d of %d", st.Completed, len(specs))
	}
	if got := res[2].StartSec; got != 5000 {
		t.Fatalf("reserved GPU job started at %v, want 5000 (exclusive CPU job took the idle node)", got)
	}
	if got := res[3].StartSec; got != 6000 {
		t.Fatalf("exclusive CPU job started at %v, want 6000", got)
	}
}
