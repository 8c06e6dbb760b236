package cluster

import (
	"math/rand"
	"testing"
)

// TestNodeStateMachine pins the legal transition graph: Up -> Draining ->
// Down -> Up, with every other edge rejected.
func TestNodeStateMachine(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.NodeState(0) != NodeUp {
		t.Fatalf("fresh node state = %s, want up", c.NodeState(0))
	}
	if err := c.SetDown(0); err == nil {
		t.Fatal("SetDown from up should fail")
	}
	if err := c.SetUp(0); err == nil {
		t.Fatal("SetUp from up should fail")
	}
	if err := c.BeginDrain(0); err != nil {
		t.Fatal(err)
	}
	if c.NodeState(0) != NodeDraining {
		t.Fatalf("state after drain = %s", c.NodeState(0))
	}
	if err := c.BeginDrain(0); err == nil {
		t.Fatal("double drain should fail")
	}
	if err := c.SetUp(0); err == nil {
		t.Fatal("SetUp from draining should fail")
	}
	if err := c.SetDown(0); err != nil {
		t.Fatal(err)
	}
	if c.NodeState(0) != NodeDown || c.DownNodes() != 1 || c.DownGPUs() != 2 {
		t.Fatalf("down bookkeeping: state=%s nodes=%d gpus=%d",
			c.NodeState(0), c.DownNodes(), c.DownGPUs())
	}
	if err := c.BeginDrain(0); err == nil {
		t.Fatal("drain from down should fail")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetUp(0); err != nil {
		t.Fatal(err)
	}
	if c.NodeState(0) != NodeUp || c.DownNodes() != 0 || c.DownGPUs() != 0 {
		t.Fatal("repair did not restore up state")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainEvictsCapacity verifies a draining node leaves the placement index
// immediately — no new work lands on it, but its running job keeps its
// resources until released — and that repair restores full capacity.
func TestDrainEvictsCapacity(t *testing.T) {
	cfg := testConfig() // 4 nodes x 2 GPUs
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pin a job to node 0 by filling it first (dense placement).
	alloc, err := c.TryAllocate(Request{JobID: 1, GPUs: 2, CoresPerGPU: 4, MemGBPerGPU: 32})
	if err != nil {
		t.Fatal(err)
	}
	node := alloc.Shares[0].Node
	if err := c.BeginDrain(node); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeAllocations(node); got != 1 {
		t.Fatalf("allocations on draining node = %d, want 1", got)
	}
	if ids := c.JobsOnNode(node); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("JobsOnNode = %v, want [1]", ids)
	}
	// Draining: not eligible for down yet while the job holds shares.
	if err := c.SetDown(node); err == nil {
		t.Fatal("SetDown with a live allocation should fail")
	}
	// Saturate the remaining GPUs; the draining node must receive nothing.
	for id := int64(2); ; id++ {
		a, err := c.TryAllocate(Request{JobID: id, GPUs: 1, CoresPerGPU: 1, MemGBPerGPU: 1})
		if err != nil {
			if _, ok := err.(ErrInsufficient); !ok {
				t.Fatal(err)
			}
			if id != 8 { // 3 up nodes x 2 GPUs + job 1's pair already placed
				t.Fatalf("saturated after %d single-GPU grants, want 6", id-2)
			}
			break
		}
		for _, s := range a.Shares {
			if s.Node == node {
				t.Fatalf("job %d placed on draining node %d", id, node)
			}
		}
	}
	// Release completes the picture: node is empty, can go down, and after
	// repair its capacity is placeable again.
	if err := c.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TryAllocate(Request{JobID: 100, GPUs: 1}); err == nil {
		t.Fatal("draining node's freed GPUs must stay unplaceable")
	}
	if err := c.SetDown(node); err != nil {
		t.Fatal(err)
	}
	if err := c.SetUp(node); err != nil {
		t.Fatal(err)
	}
	a, err := c.TryAllocate(Request{JobID: 101, GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Shares[0].Node != node {
		t.Fatalf("post-repair placement on node %d, want repaired node %d", a.Shares[0].Node, node)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStateEquivalenceRandomized extends the audited randomized stream with
// drain/down/repair churn: every placement still cross-checks against the
// naive full-scan planner (which skips non-up nodes), and invariants hold at
// every step.
func TestStateEquivalenceRandomized(t *testing.T) {
	cfg := Config{Nodes: 8, CoresPerNode: 16, MemGBPerNode: 64, GPUsPerNode: 2, NodesPerRack: 4}
	for seed := int64(1); seed <= 4; seed++ {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var live []int64
		nextID := int64(1)
		for step := 0; step < 1500; step++ {
			switch {
			case rng.Intn(100) < 8:
				// Node churn: advance a random node one legal transition.
				node := rng.Intn(cfg.Nodes)
				switch c.NodeState(node) {
				case NodeUp:
					if err := c.BeginDrain(node); err != nil {
						t.Fatalf("seed %d step %d: drain: %v", seed, step, err)
					}
				case NodeDraining:
					if c.NodeAllocations(node) == 0 {
						if err := c.SetDown(node); err != nil {
							t.Fatalf("seed %d step %d: down: %v", seed, step, err)
						}
					}
				case NodeDown:
					if err := c.SetUp(node); err != nil {
						t.Fatalf("seed %d step %d: up: %v", seed, step, err)
					}
				}
			case len(live) > 0 && rng.Intn(100) < 35:
				i := rng.Intn(len(live))
				if err := c.Release(live[i]); err != nil {
					t.Fatalf("seed %d step %d: release: %v", seed, step, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				req := randomRequest(rng, cfg, nextID)
				nextID++
				_, err := auditAllocate(c, req)
				switch err.(type) {
				case nil:
					live = append(live, req.JobID)
				case ErrInsufficient:
				default:
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: final invariants: %v", seed, err)
		}
		// Repair everything; full capacity must come back.
		for _, id := range append([]int64(nil), live...) {
			if err := c.Release(id); err != nil {
				t.Fatal(err)
			}
		}
		for n := 0; n < cfg.Nodes; n++ {
			if c.NodeState(n) == NodeDraining {
				if err := c.SetDown(n); err != nil {
					t.Fatal(err)
				}
			}
			if c.NodeState(n) == NodeDown {
				if err := c.SetUp(n); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: post-repair invariants: %v", seed, err)
		}
		if c.FreeGPUs() != cfg.Nodes*cfg.GPUsPerNode {
			t.Fatalf("seed %d: capacity lost after full repair: free=%d want=%d",
				seed, c.FreeGPUs(), cfg.Nodes*cfg.GPUsPerNode)
		}
	}
}
