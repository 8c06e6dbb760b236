package cluster

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
)

func testConfig() Config {
	return Config{
		Nodes:        4,
		CoresPerNode: 40,
		MemGBPerNode: 384,
		GPUsPerNode:  2,
		GPUSpec:      gpu.V100(),
		NodesPerRack: 2,
	}
}

func TestSupercloudConfig(t *testing.T) {
	cfg := SupercloudConfig()
	if cfg.TotalGPUs() != 448 {
		t.Fatalf("total GPUs = %d, want 448", cfg.TotalGPUs())
	}
	if cfg.TotalCores() != 8960 {
		t.Fatalf("total cores = %d, want 8960", cfg.TotalCores())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, CoresPerNode: 1, MemGBPerNode: 1},
		{Nodes: 1, CoresPerNode: 0, MemGBPerNode: 1},
		{Nodes: 1, CoresPerNode: 1, MemGBPerNode: 0},
		{Nodes: 1, CoresPerNode: 1, MemGBPerNode: 1, GPUsPerNode: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Fatalf("New accepted bad config %d", i)
		}
	}
}

func TestSingleGPUJobColocation(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Four single-GPU jobs with small CPU slices co-locate on two nodes
	// (dense placement fills a node's 2 GPUs first).
	for id := int64(1); id <= 4; id++ {
		alloc, err := c.TryAllocate(Request{JobID: id, GPUs: 1, CoresPerGPU: 4, MemGBPerGPU: 32})
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if alloc.NodeSpan() != 1 || len(alloc.GPUs()) != 1 {
			t.Fatalf("job %d allocation: %+v", id, alloc)
		}
	}
	if free := c.FreeGPUs(); free != 4 {
		t.Fatalf("free GPUs = %d, want 4", free)
	}
	// Jobs 1 and 2 should share node 0 (dense-first placement).
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	usedNodes := map[int]int{}
	for id := int64(1); id <= 4; id++ {
		for _, s := range c.allocations[id].Shares {
			usedNodes[s.Node]++
		}
	}
	if len(usedNodes) != 2 {
		t.Fatalf("4 single-GPU jobs spread over %d nodes, want 2 (dense)", len(usedNodes))
	}
}

func TestMultiGPUJobSpansNodes(t *testing.T) {
	c, _ := New(testConfig())
	alloc, err := c.TryAllocate(Request{JobID: 1, GPUs: 6, CoresPerGPU: 2, MemGBPerGPU: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(alloc.GPUs()); got != 6 {
		t.Fatalf("granted %d GPUs, want 6", got)
	}
	if alloc.NodeSpan() != 3 {
		t.Fatalf("span = %d nodes, want 3", alloc.NodeSpan())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGPUExhaustion(t *testing.T) {
	c, _ := New(testConfig())
	if _, err := c.TryAllocate(Request{JobID: 1, GPUs: 8, CoresPerGPU: 1, MemGBPerGPU: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := c.TryAllocate(Request{JobID: 2, GPUs: 1, CoresPerGPU: 1, MemGBPerGPU: 1})
	if _, ok := err.(ErrInsufficient); !ok {
		t.Fatalf("expected ErrInsufficient, got %v", err)
	}
	if err := c.Release(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TryAllocate(Request{JobID: 2, GPUs: 1, CoresPerGPU: 1, MemGBPerGPU: 1}); err != nil {
		t.Fatalf("allocation after release failed: %v", err)
	}
}

func TestCPUSliceBlocksGPUGrant(t *testing.T) {
	c, _ := New(testConfig())
	// A shared CPU job eats most cores of every node.
	if _, err := c.TryAllocate(Request{JobID: 1, Cores: 150, MemGB: 100}); err != nil {
		t.Fatal(err)
	}
	// Now a GPU job demanding 20 cores per GPU cannot fit anywhere.
	_, err := c.TryAllocate(Request{JobID: 2, GPUs: 1, CoresPerGPU: 20, MemGBPerGPU: 1})
	if _, ok := err.(ErrInsufficient); !ok {
		t.Fatalf("expected ErrInsufficient, got %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveCPUJob(t *testing.T) {
	c, _ := New(testConfig())
	alloc, err := c.TryAllocate(Request{JobID: 1, Cores: 80, Exclusive: true})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.NodeSpan() != 2 {
		t.Fatalf("exclusive span = %d, want 2 nodes", alloc.NodeSpan())
	}
	// GPU jobs cannot land on exclusive nodes; only 4 GPUs remain reachable.
	if free := c.FreeGPUs(); free != 4 {
		t.Fatalf("reachable free GPUs = %d, want 4", free)
	}
	if _, err := c.TryAllocate(Request{JobID: 2, GPUs: 5, CoresPerGPU: 1, MemGBPerGPU: 1}); err == nil {
		t.Fatal("5-GPU job granted with only 4 reachable GPUs")
	}
	if err := c.Release(1); err != nil {
		t.Fatal(err)
	}
	if free := c.FreeGPUs(); free != 8 {
		t.Fatalf("free GPUs after release = %d", free)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveNeedsWholeFreeNodes(t *testing.T) {
	c, _ := New(testConfig())
	// Occupy one GPU on every node.
	for id := int64(1); id <= 4; id++ {
		if _, err := c.TryAllocate(Request{JobID: id, GPUs: 2, CoresPerGPU: 1, MemGBPerGPU: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// No node is fully free, so an exclusive job must be refused.
	if _, err := c.TryAllocate(Request{JobID: 9, Cores: 40, Exclusive: true}); err == nil {
		t.Fatal("exclusive job granted on busy cluster")
	}
}

func TestDoubleAllocateAndRelease(t *testing.T) {
	c, _ := New(testConfig())
	if _, err := c.TryAllocate(Request{JobID: 1, GPUs: 1, CoresPerGPU: 1, MemGBPerGPU: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TryAllocate(Request{JobID: 1, GPUs: 1, CoresPerGPU: 1, MemGBPerGPU: 1}); err == nil {
		t.Fatal("duplicate job id accepted")
	}
	if err := c.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(1); err == nil {
		t.Fatal("double release accepted")
	}
	if err := c.Release(99); err == nil {
		t.Fatal("release of unknown job accepted")
	}
}

func TestNegativeRequestRejected(t *testing.T) {
	c, _ := New(testConfig())
	if _, err := c.TryAllocate(Request{JobID: 1, GPUs: -1}); err == nil {
		t.Fatal("negative GPUs accepted")
	}
}

func TestDeviceLookup(t *testing.T) {
	c, _ := New(testConfig())
	d := c.Device(gpu.DeviceID{Node: 2, Index: 1})
	if d.ID.Node != 2 || d.ID.Index != 1 {
		t.Fatalf("device lookup returned %v", d.ID)
	}
}

// Property: any sequence of allocations and releases preserves resource
// conservation (total GPUs constant, invariants hold).
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c, err := New(testConfig())
		if err != nil {
			return false
		}
		live := map[int64]bool{}
		next := int64(1)
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				// Release an arbitrary live job.
				for id := range live {
					if c.Release(id) != nil {
						return false
					}
					delete(live, id)
					break
				}
				continue
			}
			gpus := int(op%4) + 1
			_, err := c.TryAllocate(Request{JobID: next, GPUs: gpus, CoresPerGPU: 2, MemGBPerGPU: 8})
			if err == nil {
				live[next] = true
			} else if _, ok := err.(ErrInsufficient); !ok {
				return false
			}
			next++
			if c.CheckInvariants() != nil {
				return false
			}
		}
		// Drain and verify everything comes back.
		for id := range live {
			if c.Release(id) != nil {
				return false
			}
		}
		return c.FreeGPUs() == 8 && c.LiveAllocations() == 0 && c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	c, _ := New(testConfig())
	if c.Config().Nodes != 4 {
		t.Fatalf("Config() = %+v", c.Config())
	}
	nodes := c.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("Nodes() = %d", len(nodes))
	}
	if nodes[0].FreeCores() != 40 || nodes[0].FreeMemGB() != 384 {
		t.Fatalf("fresh node state: %d cores, %v GB", nodes[0].FreeCores(), nodes[0].FreeMemGB())
	}
	if _, err := c.TryAllocate(Request{JobID: 1, GPUs: 1, CoresPerGPU: 8, MemGBPerGPU: 64}); err != nil {
		t.Fatal(err)
	}
	if nodes[0].FreeCores() != 32 || nodes[0].FreeMemGB() != 320 {
		t.Fatalf("post-grant node state: %d cores, %v GB", nodes[0].FreeCores(), nodes[0].FreeMemGB())
	}
}

func TestErrInsufficientMessage(t *testing.T) {
	err := ErrInsufficient{Req: Request{JobID: 7, GPUs: 3, Exclusive: true}}
	msg := err.Error()
	if msg == "" || !strings.Contains(msg, "job 7") {
		t.Fatalf("error message: %q", msg)
	}
}

func TestSharedCPUJobRollbackOnShortage(t *testing.T) {
	c, _ := New(testConfig())
	// Ask for more cores than the whole cluster has: the partial grant must
	// roll back completely.
	_, err := c.TryAllocate(Request{JobID: 1, Cores: 4*40 + 1, MemGB: 1})
	if _, ok := err.(ErrInsufficient); !ok {
		t.Fatalf("expected ErrInsufficient, got %v", err)
	}
	for _, n := range c.Nodes() {
		if n.FreeCores() != 40 {
			t.Fatalf("rollback leaked cores on node %d: %d free", n.Index, n.FreeCores())
		}
	}
	if c.LiveAllocations() != 0 {
		t.Fatal("failed allocation recorded")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedCPUJobMemoryOnly(t *testing.T) {
	c, _ := New(testConfig())
	// A memory-dominant shared request spanning nodes.
	alloc, err := c.TryAllocate(Request{JobID: 1, Cores: 4, MemGB: 500})
	if err != nil {
		t.Fatal(err)
	}
	var mem float64
	for _, s := range alloc.Shares {
		mem += s.MemGB
	}
	if mem < 500 {
		t.Fatalf("granted %v GB, want >= 500", mem)
	}
	if err := c.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the live node list (shared, not copied; callers must not
// mutate).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// DownNodes returns the number of nodes currently down.
func (c *Cluster) DownNodes() int { return c.downNodes }

// Device returns the device with the given ID.
func (c *Cluster) Device(id gpu.DeviceID) *gpu.Device {
	return c.nodes[id.Node].devices[id.Index]
}

// GPUs returns every granted device ID.
func (a *Allocation) GPUs() []gpu.DeviceID {
	var ids []gpu.DeviceID
	for _, s := range a.Shares {
		ids = append(ids, s.GPUIDs...)
	}
	return ids
}

// FreeCores returns the unallocated core count.
func (n *Node) FreeCores() int { return n.freeCores }

// FreeMemGB returns the unallocated memory.
func (n *Node) FreeMemGB() float64 { return n.freeMemGB }
