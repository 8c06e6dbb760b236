package cluster

import (
	"math/rand"
	"testing"
)

// TestAllocationEquivalenceRandomized drives a cluster through randomized
// request/release streams, every grant going through auditAllocate (the
// indexed placement cross-checked against the pre-index full-scan planner,
// then every invariant re-verified). Any node-for-node divergence between
// the indexed and naive placements — or any index drift — surfaces as a hard
// error. The production Supercloud shape is one of the configs, so the
// scheduler's own machine is covered at its full node count.
func TestAllocationEquivalenceRandomized(t *testing.T) {
	cfgs := []Config{
		{Nodes: 6, CoresPerNode: 40, MemGBPerNode: 384, GPUsPerNode: 2, NodesPerRack: 4},
		{Nodes: 9, CoresPerNode: 16, MemGBPerNode: 64, GPUsPerNode: 4, NodesPerRack: 3},
		{Nodes: 70, CoresPerNode: 40, MemGBPerNode: 384, GPUsPerNode: 2, NodesPerRack: 16},
		SupercloudConfig(),
	}
	for seed := int64(1); seed <= 6; seed++ {
		for ci, cfg := range cfgs {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
			var live []int64
			nextID := int64(1)
			for step := 0; step < 2000; step++ {
				// Bias toward allocation so the cluster spends time saturated,
				// where placement order and rejections matter most.
				if len(live) > 0 && rng.Intn(100) < 35 {
					i := rng.Intn(len(live))
					if err := c.Release(live[i]); err != nil {
						t.Fatalf("cfg %d seed %d step %d: release: %v", ci, seed, step, err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				req := randomRequest(rng, cfg, nextID)
				nextID++
				_, err := auditAllocate(c, req)
				switch err.(type) {
				case nil:
					live = append(live, req.JobID)
				case ErrInsufficient:
					// Queued; nothing granted.
				default:
					t.Fatalf("cfg %d seed %d step %d: %v", ci, seed, step, err)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("cfg %d seed %d: final invariants: %v", ci, seed, err)
			}
		}
	}
}

// randomRequest produces the workload-shaped request mix the scheduler
// issues: mostly small GPU jobs with CPU slices, some spanning multi-GPU
// jobs, shared and exclusive CPU jobs, and the occasional AvoidGPUNodes
// request the reservation path sets.
func randomRequest(rng *rand.Rand, cfg Config, id int64) Request {
	switch rng.Intn(10) {
	case 0, 1, 2, 3, 4: // GPU job, fits-one-node sizes through spanning sizes
		gpus := 1 + rng.Intn(cfg.GPUsPerNode*3)
		return Request{
			JobID:       id,
			GPUs:        gpus,
			CoresPerGPU: rng.Intn(cfg.CoresPerNode/2 + 1),
			MemGBPerGPU: float64(rng.Intn(int(cfg.MemGBPerNode)/2 + 1)),
		}
	case 5: // exclusive GPU job (ablation path)
		return Request{JobID: id, GPUs: 1 + rng.Intn(cfg.GPUsPerNode*2), Exclusive: true}
	case 6: // exclusive CPU job
		return Request{
			JobID:         id,
			Cores:         1 + rng.Intn(cfg.CoresPerNode*2),
			MemGB:         float64(rng.Intn(int(cfg.MemGBPerNode))),
			Exclusive:     true,
			AvoidGPUNodes: rng.Intn(8) == 0,
		}
	default: // shared CPU job
		return Request{
			JobID:         id,
			Cores:         rng.Intn(cfg.CoresPerNode * 2),
			MemGB:         float64(rng.Intn(int(cfg.MemGBPerNode) * 2)),
			AvoidGPUNodes: rng.Intn(8) == 0,
		}
	}
}
