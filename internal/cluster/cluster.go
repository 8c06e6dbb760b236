// Package cluster models the Supercloud hardware inventory (Table I of the
// paper): 224 dual-socket Xeon nodes with two V100 GPUs each, 384 GB of node
// RAM, local plus shared storage, and a two-layer partial fat-tree
// interconnect. It exposes the resource accounting the scheduler needs —
// per-node free cores/memory/GPUs, allocation and release with hard
// conservation invariants, and density-aware placement for multi-GPU jobs.
//
// Placement is backed by a free-capacity index: per-node free-GPU buckets,
// an idle-node set, a shared-CPU set, and cluster-wide aggregate counters.
// TryAllocate rejects infeasible requests in O(1) against the aggregates and
// places feasible ones by walking only the nodes that can contribute, in
// exactly the order the original full-scan algorithm visited them — the
// indexed and naive placements are node-for-node identical (the package's
// allocation-equivalence tests replay randomized request streams against the
// full-scan planner kept in naive_test.go), so scheduling outcomes and golden
// figures are unchanged by the index.
package cluster

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/gpu"
)

// Config describes a cluster to build. The zero value is not useful; use
// SupercloudConfig for the paper's system or construct explicitly for tests.
type Config struct {
	Nodes        int
	CoresPerNode int
	MemGBPerNode float64
	GPUsPerNode  int
	GPUSpec      gpu.Spec
	// NodesPerRack controls the topology distance metric used by dense
	// placement; nodes in one rack are "neighbors".
	NodesPerRack int
	// Interconnect and network are descriptive (Table I rendering).
	Interconnect string
	Network      string
	LocalSSDTB   float64
	LocalHDDTB   float64
	SharedSSDTB  float64
}

// SupercloudConfig returns the paper's Table I configuration.
func SupercloudConfig() Config {
	return Config{
		Nodes:        224,
		CoresPerNode: 40, // two Xeon Gold 6248, 20 cores each
		MemGBPerNode: 384,
		GPUsPerNode:  2,
		GPUSpec:      gpu.V100(),
		NodesPerRack: 16,
		Interconnect: "100 Gb/s Omnipath two-layer partial fat-tree",
		Network:      "25 Gb/s Ethernet CX-4",
		LocalSSDTB:   1,
		LocalHDDTB:   3.8,
		SharedSSDTB:  873,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("cluster: need at least one node, got %d", c.Nodes)
	case c.CoresPerNode < 1:
		return fmt.Errorf("cluster: need at least one core per node, got %d", c.CoresPerNode)
	case c.MemGBPerNode <= 0:
		return fmt.Errorf("cluster: node memory must be positive, got %v", c.MemGBPerNode)
	case c.GPUsPerNode < 0:
		return fmt.Errorf("cluster: negative GPUs per node: %d", c.GPUsPerNode)
	}
	return nil
}

// TotalGPUs returns Nodes × GPUsPerNode.
func (c Config) TotalGPUs() int { return c.Nodes * c.GPUsPerNode }

// TotalCores returns Nodes × CoresPerNode.
func (c Config) TotalCores() int { return c.Nodes * c.CoresPerNode }

// memEps absorbs the floating-point drift of releasing memory by addition
// when deciding whether a node is back to fully idle.
const memEps = 1e-9

// NodeState is the availability state of a node: the fault-injection
// machinery moves nodes Up → Draining → Down → Up, and only Up nodes are
// visible to placement.
type NodeState int

// The node availability states.
const (
	// NodeUp is the normal serving state.
	NodeUp NodeState = iota
	// NodeDraining no longer accepts placements; existing allocations may
	// still be running (scheduled drain) or being force-released (crash).
	NodeDraining
	// NodeDown is out of service entirely; the node must be empty.
	NodeDown
)

// String returns the state name.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDraining:
		return "draining"
	case NodeDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Node is one compute node's live resource state.
type Node struct {
	Index     int
	freeCores int
	freeMemGB float64
	freeGPUs  int // unallocated devices; kept in lockstep with devices
	devices   []*gpu.Device
	exclusive int64     // job holding the node exclusively, or none
	state     NodeState // availability; non-Up nodes leave the index entirely
	allocN    int       // live shares on this node (drain-completion tracking)

	// Index membership caches, owned by Cluster.reindex.
	bucket int // gpuBuckets slot currently holding this node; 0 = none
	inIdle bool
	inCPU  bool
}

// noExclusive is the sentinel for Node.exclusive.
const noExclusive int64 = -1

// Exclusive reports whether a job holds the node exclusively.
func (n *Node) Exclusive() bool { return n.exclusive != noExclusive }

// shared reports whether the node participates in the shared aggregates:
// up and not exclusively held.
func (n *Node) shared() bool { return n.state == NodeUp && !n.Exclusive() }

// nodeSet is an ordered set of node indices backed by a bitmap: O(1) add,
// remove and membership, ascending-index iteration at ~64 nodes per word.
// Ascending order matters — it is the tie-break the placement algorithms
// share with the pre-index full scan.
type nodeSet struct {
	words []uint64
	n     int
}

func newNodeSet(capacity int) nodeSet {
	return nodeSet{words: make([]uint64, (capacity+63)/64)}
}

func (s *nodeSet) add(i int) {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&b == 0 {
		s.words[w] |= b
		s.n++
	}
}

func (s *nodeSet) remove(i int) {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&b != 0 {
		s.words[w] &^= b
		s.n--
	}
}

func (s *nodeSet) contains(i int) bool {
	return s.words[i>>6]&(uint64(1)<<(uint(i)&63)) != 0
}

// each calls fn for every member in ascending index order until fn returns
// false.
func (s *nodeSet) each(fn func(i int) bool) {
	for w, word := range s.words {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			if !fn(i) {
				return
			}
			word &= word - 1
		}
	}
}

// Cluster is the full machine. It is not safe for concurrent mutation; the
// discrete-event scheduler drives it single-threaded, mirroring a Slurm
// controller.
type Cluster struct {
	cfg   Config
	nodes []*Node
	// allocations tracks live grants by job ID so Release can be total.
	allocations map[int64]*Allocation

	// Free-capacity index. The aggregates cover non-exclusive nodes only
	// (exclusive nodes are invisible to every placement path), so they give
	// O(1) upper-bound rejection; the sets give scan-free enumeration in the
	// exact visit order of the pre-index algorithm.
	freeGPUsShared  int       // free devices on non-exclusive nodes
	freeCoresShared int       // free cores on non-exclusive nodes
	gpuBuckets      []nodeSet // [g]: non-exclusive nodes with exactly g free GPUs, g >= 1
	idleSet         nodeSet   // fully idle nodes (exclusive grants draw from here)
	cpuSet          nodeSet   // non-exclusive nodes with freeCores > 0

	// Availability accounting (fault injection): nodes and devices currently
	// in the Down state.
	downNodes int
	downGPUs  int

	// planBuf is reusable scratch for the plan-then-commit allocation paths.
	planBuf []planShare
}

// planShare is one node's contribution in a not-yet-committed placement.
type planShare struct {
	node  *Node
	gpus  int
	cores int
	mem   float64
}

// New builds a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, allocations: make(map[int64]*Allocation)}
	c.gpuBuckets = make([]nodeSet, cfg.GPUsPerNode+1)
	for g := range c.gpuBuckets {
		c.gpuBuckets[g] = newNodeSet(cfg.Nodes)
	}
	c.idleSet = newNodeSet(cfg.Nodes)
	c.cpuSet = newNodeSet(cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			Index:     i,
			freeCores: cfg.CoresPerNode,
			freeMemGB: cfg.MemGBPerNode,
			freeGPUs:  cfg.GPUsPerNode,
			exclusive: noExclusive,
		}
		for g := 0; g < cfg.GPUsPerNode; g++ {
			n.devices = append(n.devices, gpu.NewDevice(gpu.DeviceID{Node: i, Index: g}, cfg.GPUSpec))
		}
		c.nodes = append(c.nodes, n)
		c.freeGPUsShared += n.freeGPUs
		c.freeCoresShared += n.freeCores
		c.reindex(n)
	}
	return c, nil
}

// Request is a resource ask, in Slurm terms.
type Request struct {
	JobID int64
	// GPUs requested across the whole job.
	GPUs int
	// CoresPerGPU is the host-CPU slice accompanying each GPU (GPU jobs
	// "request fewer CPU cores and memory"; the paper's co-location insight).
	// For CPU-only jobs, Cores below is used instead.
	CoresPerGPU int
	MemGBPerGPU float64
	// Cores and MemGB are the totals for CPU-only jobs (GPUs == 0).
	Cores int
	MemGB float64
	// Exclusive requests whole nodes (typical of the paper's CPU jobs, which
	// "usually request all cores and full memory of the nodes"). Combined
	// with GPUs > 0 it reserves ceil(GPUs/GPUsPerNode) idle nodes outright —
	// the non-colocated ablation.
	Exclusive bool
	// AvoidGPUNodes keeps a CPU request off nodes that currently have free
	// GPUs. The scheduler sets it while a reservation is accumulating freed
	// devices for an aged GPU job, so CPU jobs cannot strand the reserved
	// GPUs by draining those nodes' cores and memory. Exclusive CPU requests
	// are refused outright while it is set (on a machine with GPUs, every
	// fully idle node has free GPUs). Ignored for GPU requests.
	AvoidGPUNodes bool
}

// NodeShare is the slice of one node granted to a job.
type NodeShare struct {
	Node   int
	Cores  int
	MemGB  float64
	GPUIDs []gpu.DeviceID
}

// Allocation is a granted request.
type Allocation struct {
	JobID  int64
	Shares []NodeShare
}

// NodeSpan returns the number of distinct nodes in the allocation.
func (a *Allocation) NodeSpan() int { return len(a.Shares) }

// ErrInsufficient is returned by TryAllocate when the request cannot be
// satisfied right now; the scheduler keeps the job queued.
type ErrInsufficient struct{ Req Request }

// Error implements error.
func (e ErrInsufficient) Error() string {
	return fmt.Sprintf("cluster: insufficient resources for job %d (gpus=%d cores=%d excl=%v)",
		e.Req.JobID, e.Req.GPUs, e.Req.Cores, e.Req.Exclusive)
}

// TryAllocate attempts to grant req. GPU jobs are placed as densely as
// possible — nodes with the most free GPUs first, then rack-adjacent nodes —
// matching the paper's §V observation that multi-GPU jobs are "placed as
// densely as possible, either on the same node or on neighboring nodes".
// CPU-only exclusive jobs take whole free nodes. On success the allocation
// is recorded and returned; on resource shortage it returns ErrInsufficient.
func (c *Cluster) TryAllocate(req Request) (*Allocation, error) {
	if _, dup := c.allocations[req.JobID]; dup {
		return nil, fmt.Errorf("cluster: job %d already holds an allocation", req.JobID)
	}
	if req.GPUs < 0 || req.Cores < 0 || req.CoresPerGPU < 0 {
		return nil, fmt.Errorf("cluster: negative resource in request %+v", req)
	}
	var alloc *Allocation
	var err error
	if req.GPUs > 0 && req.Exclusive {
		alloc, err = c.allocateExclusiveGPUJob(req)
	} else if req.GPUs > 0 {
		alloc, err = c.allocateGPUJob(req)
	} else if req.Exclusive {
		alloc, err = c.allocateExclusiveCPUJob(req)
	} else {
		alloc, err = c.allocateSharedCPUJob(req)
	}
	if err != nil {
		return nil, err
	}
	c.allocations[req.JobID] = alloc
	return alloc, nil
}

// allocateGPUJob grants a GPU job with dense placement, enumerating only
// nodes with free devices via the GPU buckets. The visit order reproduces
// the pre-index sort exactly: if the whole job fits on one candidate node,
// best-fit (fullest fitting nodes first: buckets req..G ascending, then the
// too-small buckets ascending); otherwise widest-first (buckets G..1
// descending). Ties break toward lower node index — the buckets iterate
// ascending natively. Placement is planned read-only and committed only when
// complete, so shortage needs no rollback.
func (c *Cluster) allocateGPUJob(req Request) (*Allocation, error) {
	if req.GPUs > c.freeGPUsShared {
		return nil, ErrInsufficient{Req: req} // O(1): not enough devices exist
	}
	ok := func(n *Node) bool {
		// The node must be able to host at least one GPU's CPU slice.
		return n.freeCores >= req.CoresPerGPU && n.freeMemGB >= req.MemGBPerGPU
	}
	maxG := c.cfg.GPUsPerNode
	fitsOneNode := false
	if req.GPUs <= maxG {
		for g := req.GPUs; g <= maxG && !fitsOneNode; g++ {
			c.gpuBuckets[g].each(func(i int) bool {
				if ok(c.nodes[i]) {
					fitsOneNode = true
					return false
				}
				return true
			})
		}
	}
	plan := c.planBuf[:0]
	remaining := req.GPUs
	visit := func(i int) bool {
		n := c.nodes[i]
		if !ok(n) {
			return true
		}
		take := remaining
		if take > n.freeGPUs {
			take = n.freeGPUs
		}
		// Respect the per-GPU CPU slice on this node.
		if req.CoresPerGPU > 0 {
			if m := n.freeCores / req.CoresPerGPU; take > m {
				take = m
			}
		}
		if req.MemGBPerGPU > 0 {
			if m := int(n.freeMemGB / req.MemGBPerGPU); take > m {
				take = m
			}
		}
		if take <= 0 {
			return true
		}
		plan = append(plan, planShare{node: n, gpus: take, cores: take * req.CoresPerGPU,
			mem: float64(take) * req.MemGBPerGPU})
		remaining -= take
		return remaining > 0
	}
	if fitsOneNode {
		for g := req.GPUs; g <= maxG && remaining > 0; g++ {
			c.gpuBuckets[g].each(visit)
		}
		for g := 1; g < req.GPUs && remaining > 0; g++ {
			c.gpuBuckets[g].each(visit)
		}
	} else {
		for g := maxG; g >= 1 && remaining > 0; g-- {
			c.gpuBuckets[g].each(visit)
		}
	}
	c.planBuf = plan[:0] // retain grown capacity for the next request
	if remaining > 0 {
		return nil, ErrInsufficient{Req: req}
	}
	alloc := &Allocation{JobID: req.JobID, Shares: make([]NodeShare, 0, len(plan))}
	for _, p := range plan {
		share := NodeShare{Node: p.node.Index, Cores: p.cores, MemGB: p.mem,
			GPUIDs: make([]gpu.DeviceID, 0, p.gpus)}
		granted := 0
		for _, d := range p.node.devices {
			if granted == p.gpus {
				break
			}
			if d.Free() {
				if err := d.Allocate(req.JobID); err != nil {
					return nil, err
				}
				share.GPUIDs = append(share.GPUIDs, d.ID)
				granted++
			}
		}
		c.book(p.node, p.cores, p.mem, p.gpus)
		p.node.allocN++
		alloc.Shares = append(alloc.Shares, share)
	}
	return alloc, nil
}

// allocateExclusiveCPUJob grants whole free nodes until cores are covered,
// drawing from the idle-node set.
func (c *Cluster) allocateExclusiveCPUJob(req Request) (*Allocation, error) {
	if req.AvoidGPUNodes && c.cfg.GPUsPerNode > 0 {
		// A reservation is holding freed GPUs; every fully idle node has
		// free GPUs, so whole-node grants would strand them.
		return nil, ErrInsufficient{Req: req}
	}
	nodesNeeded := (req.Cores + c.cfg.CoresPerNode - 1) / c.cfg.CoresPerNode
	if nodesNeeded < 1 {
		nodesNeeded = 1
	}
	if c.idleSet.n < nodesNeeded {
		return nil, ErrInsufficient{Req: req}
	}
	free := c.takeIdleNodes(nodesNeeded)
	alloc := &Allocation{JobID: req.JobID, Shares: make([]NodeShare, 0, nodesNeeded)}
	for _, n := range free {
		c.markExclusive(n, req.JobID)
		n.allocN++
		alloc.Shares = append(alloc.Shares, NodeShare{Node: n.Index, Cores: c.cfg.CoresPerNode, MemGB: c.cfg.MemGBPerNode})
	}
	return alloc, nil
}

// takeIdleNodes snapshots the first want members of the idle set in index
// order. A snapshot, not a live iteration: callers mutate membership while
// consuming the result.
func (c *Cluster) takeIdleNodes(want int) []*Node {
	free := make([]*Node, 0, want)
	c.idleSet.each(func(i int) bool {
		free = append(free, c.nodes[i])
		return len(free) < want
	})
	return free
}

// allocateExclusiveGPUJob grants whole idle nodes for a GPU job — the
// -colocate=false ablation, where GPU jobs reserve nodes outright like a
// traditional HPC scheduler. The job is handed exactly req.GPUs devices; any
// further devices on its nodes are reserved but idle.
func (c *Cluster) allocateExclusiveGPUJob(req Request) (*Allocation, error) {
	perNode := c.cfg.GPUsPerNode
	if perNode < 1 {
		return nil, ErrInsufficient{Req: req}
	}
	nodesNeeded := (req.GPUs + perNode - 1) / perNode
	if c.idleSet.n < nodesNeeded {
		return nil, ErrInsufficient{Req: req}
	}
	free := c.takeIdleNodes(nodesNeeded)
	alloc := &Allocation{JobID: req.JobID, Shares: make([]NodeShare, 0, nodesNeeded)}
	remaining := req.GPUs
	for _, n := range free {
		c.markExclusive(n, req.JobID)
		share := NodeShare{Node: n.Index, Cores: c.cfg.CoresPerNode, MemGB: c.cfg.MemGBPerNode}
		take := 0
		for _, d := range n.devices {
			if remaining == 0 {
				break
			}
			if err := d.Allocate(req.JobID); err != nil {
				return nil, err
			}
			share.GPUIDs = append(share.GPUIDs, d.ID)
			remaining--
			take++
		}
		c.book(n, 0, 0, take)
		n.allocN++
		alloc.Shares = append(alloc.Shares, share)
	}
	return alloc, nil
}

// allocateSharedCPUJob grants core/memory slices on shared nodes, first-fit
// over the shared-CPU set (non-exclusive nodes with free cores, ascending
// index — the pre-index scan order). Planned read-only, committed when
// covered; shortage needs no rollback.
func (c *Cluster) allocateSharedCPUJob(req Request) (*Allocation, error) {
	if req.Cores > c.freeCoresShared {
		return nil, ErrInsufficient{Req: req} // O(1): not enough cores exist
	}
	plan := c.planBuf[:0]
	coresLeft, memLeft := req.Cores, req.MemGB
	c.cpuSet.each(func(i int) bool {
		n := c.nodes[i]
		if req.AvoidGPUNodes && n.freeGPUs > 0 {
			return true
		}
		takeCores := coresLeft
		if takeCores > n.freeCores {
			takeCores = n.freeCores
		}
		takeMem := memLeft
		if takeMem > n.freeMemGB {
			takeMem = n.freeMemGB
		}
		if takeCores <= 0 && takeMem <= 0 {
			return true
		}
		if takeCores < 0 {
			takeCores = 0
		}
		if takeMem < 0 {
			takeMem = 0
		}
		plan = append(plan, planShare{node: n, cores: takeCores, mem: takeMem})
		coresLeft -= takeCores
		memLeft -= takeMem
		return coresLeft > 0 || memLeft > 0
	})
	c.planBuf = plan[:0]
	if coresLeft > 0 || memLeft > 0 {
		return nil, ErrInsufficient{Req: req}
	}
	alloc := &Allocation{JobID: req.JobID, Shares: make([]NodeShare, 0, len(plan))}
	for _, p := range plan {
		c.book(p.node, p.cores, p.mem, 0)
		p.node.allocN++
		alloc.Shares = append(alloc.Shares, NodeShare{Node: p.node.Index, Cores: p.cores, MemGB: p.mem})
	}
	return alloc, nil
}

// book debits (or, with negative deltas, credits) a node's free resources
// and keeps the capacity index coherent. Exclusive and non-up nodes are
// outside the shared aggregates, so only their per-node counters move.
func (c *Cluster) book(n *Node, cores int, mem float64, gpus int) {
	n.freeCores -= cores
	n.freeMemGB -= mem
	n.freeGPUs -= gpus
	if n.shared() {
		c.freeCoresShared -= cores
		c.freeGPUsShared -= gpus
	}
	c.reindex(n)
}

// markExclusive hands the whole node to jobID: its remaining free capacity
// leaves the shared aggregates and the node drains to zero. Only reachable
// for idle (hence up) nodes.
func (c *Cluster) markExclusive(n *Node, jobID int64) {
	if n.state == NodeUp {
		c.freeCoresShared -= n.freeCores
		c.freeGPUsShared -= n.freeGPUs
	}
	n.exclusive = jobID
	n.freeCores = 0
	n.freeMemGB = 0
	c.reindex(n)
}

// reindex recomputes the node's index memberships from its raw state. Nodes
// that are not up belong to no set — they are invisible to placement.
func (c *Cluster) reindex(n *Node) {
	bucket := 0
	if n.shared() && n.freeGPUs > 0 {
		bucket = n.freeGPUs
	}
	if bucket != n.bucket {
		if n.bucket > 0 {
			c.gpuBuckets[n.bucket].remove(n.Index)
		}
		if bucket > 0 {
			c.gpuBuckets[bucket].add(n.Index)
		}
		n.bucket = bucket
	}
	idle := n.shared() && n.freeCores == c.cfg.CoresPerNode &&
		n.freeMemGB >= c.cfg.MemGBPerNode-memEps && n.freeGPUs == len(n.devices)
	if idle != n.inIdle {
		if idle {
			c.idleSet.add(n.Index)
		} else {
			c.idleSet.remove(n.Index)
		}
		n.inIdle = idle
	}
	cpu := n.shared() && n.freeCores > 0
	if cpu != n.inCPU {
		if cpu {
			c.cpuSet.add(n.Index)
		} else {
			c.cpuSet.remove(n.Index)
		}
		n.inCPU = cpu
	}
}

// BeginDrain moves an up node to draining: it leaves the capacity index and
// the shared aggregates immediately, so no further placements land on it.
// Existing allocations keep running (scheduled drain) or are force-released
// by the caller (crash).
func (c *Cluster) BeginDrain(i int) error {
	n := c.nodes[i]
	if n.state != NodeUp {
		return fmt.Errorf("cluster: cannot drain node %d from state %s", i, n.state)
	}
	if !n.Exclusive() {
		c.freeCoresShared -= n.freeCores
		c.freeGPUsShared -= n.freeGPUs
	}
	n.state = NodeDraining
	c.reindex(n)
	return nil
}

// SetDown completes a drain: the node must hold no allocations (every job
// finished or was force-released). Its capacity is counted as lost until
// SetUp returns it to service.
func (c *Cluster) SetDown(i int) error {
	n := c.nodes[i]
	if n.state != NodeDraining {
		return fmt.Errorf("cluster: cannot down node %d from state %s", i, n.state)
	}
	if n.allocN != 0 || n.Exclusive() {
		return fmt.Errorf("cluster: node %d still holds %d allocations", i, n.allocN)
	}
	if n.freeCores != c.cfg.CoresPerNode || n.freeGPUs != len(n.devices) {
		return fmt.Errorf("cluster: node %d not fully free at down transition", i)
	}
	n.state = NodeDown
	c.downNodes++
	c.downGPUs += len(n.devices)
	c.reindex(n)
	return nil
}

// SetUp returns a repaired node to service: its (full) free capacity rejoins
// the shared aggregates and the index.
func (c *Cluster) SetUp(i int) error {
	n := c.nodes[i]
	if n.state != NodeDown {
		return fmt.Errorf("cluster: cannot restore node %d from state %s", i, n.state)
	}
	n.state = NodeUp
	c.downNodes--
	c.downGPUs -= len(n.devices)
	c.freeCoresShared += n.freeCores
	c.freeGPUsShared += n.freeGPUs
	c.reindex(n)
	return nil
}

// NodeState returns node i's availability state.
func (c *Cluster) NodeState(i int) NodeState { return c.nodes[i].state }

// NodeAllocations returns the number of live shares on node i.
func (c *Cluster) NodeAllocations(i int) int { return c.nodes[i].allocN }

// DownGPUs returns the number of devices on down nodes — capacity currently
// lost to failures.
func (c *Cluster) DownGPUs() int { return c.downGPUs }

// JobsOnNode returns the IDs of every job holding a share on node i, in
// ascending order — the deterministic kill order for a node crash.
func (c *Cluster) JobsOnNode(i int) []int64 {
	var ids []int64
	for id, alloc := range c.allocations {
		for _, s := range alloc.Shares {
			if s.Node == i {
				ids = append(ids, id)
				break
			}
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// Release returns a job's resources. It errors if the job holds nothing —
// a double release means the scheduler lost track of state.
func (c *Cluster) Release(jobID int64) error {
	alloc, ok := c.allocations[jobID]
	if !ok {
		return fmt.Errorf("cluster: job %d holds no allocation", jobID)
	}
	for _, s := range alloc.Shares {
		n := c.nodes[s.Node]
		n.allocN--
		if n.exclusive == jobID {
			for _, id := range s.GPUIDs {
				if err := n.devices[id.Index].Release(); err != nil {
					return err
				}
			}
			n.freeGPUs += len(s.GPUIDs)
			n.exclusive = noExclusive
			n.freeCores = c.cfg.CoresPerNode
			n.freeMemGB = c.cfg.MemGBPerNode
			if n.state == NodeUp {
				c.freeCoresShared += n.freeCores
				c.freeGPUsShared += n.freeGPUs
			}
			c.reindex(n)
			continue
		}
		for _, id := range s.GPUIDs {
			if err := n.devices[id.Index].Release(); err != nil {
				return err
			}
		}
		c.book(n, -s.Cores, -s.MemGB, -len(s.GPUIDs))
	}
	delete(c.allocations, jobID)
	return nil
}

// FreeGPUs returns the cluster-wide count of unallocated GPUs on
// non-exclusive nodes — the devices a colocated GPU job could reach.
func (c *Cluster) FreeGPUs() int { return c.freeGPUsShared }

// LiveAllocations returns the number of outstanding allocations.
func (c *Cluster) LiveAllocations() int { return len(c.allocations) }

// CheckInvariants verifies resource conservation — free counts within
// bounds, no device allocated to an unknown job, exclusive nodes fully
// drained, down nodes empty — and that the capacity index (per-node
// counters, bucket/set memberships, shared aggregates, availability
// counters) matches a from-scratch recomputation. It is called by tests; the
// package's allocation-equivalence tests run it after every allocation.
func (c *Cluster) CheckInvariants() error {
	wantGPUs, wantCores := 0, 0
	wantDownNodes, wantDownGPUs := 0, 0
	shareCount := make(map[int]int)
	for _, alloc := range c.allocations {
		for _, s := range alloc.Shares {
			shareCount[s.Node]++
		}
	}
	for _, n := range c.nodes {
		if n.freeCores < 0 || n.freeCores > c.cfg.CoresPerNode {
			return fmt.Errorf("cluster: node %d free cores %d out of range", n.Index, n.freeCores)
		}
		if n.freeMemGB < -memEps || n.freeMemGB > c.cfg.MemGBPerNode+memEps {
			return fmt.Errorf("cluster: node %d free mem %v out of range", n.Index, n.freeMemGB)
		}
		fg := 0
		for _, d := range n.devices {
			if d.Free() {
				fg++
				continue
			}
			if _, ok := c.allocations[d.AllocatedTo()]; !ok {
				return fmt.Errorf("cluster: device %s allocated to unknown job %d", d.ID, d.AllocatedTo())
			}
		}
		if fg != n.freeGPUs {
			return fmt.Errorf("cluster: node %d free-GPU counter %d, devices say %d", n.Index, n.freeGPUs, fg)
		}
		if n.Exclusive() && (n.freeCores != 0 || n.freeMemGB != 0) {
			return fmt.Errorf("cluster: exclusive node %d not fully drained", n.Index)
		}
		if n.allocN != shareCount[n.Index] {
			return fmt.Errorf("cluster: node %d share counter %d, allocations say %d",
				n.Index, n.allocN, shareCount[n.Index])
		}
		if n.state == NodeDown {
			wantDownNodes++
			wantDownGPUs += len(n.devices)
			if n.allocN != 0 || n.Exclusive() || n.freeCores != c.cfg.CoresPerNode || n.freeGPUs != len(n.devices) {
				return fmt.Errorf("cluster: down node %d is not empty", n.Index)
			}
		}
		if n.shared() {
			wantGPUs += n.freeGPUs
			wantCores += n.freeCores
		}
		wantBucket := 0
		if n.shared() && n.freeGPUs > 0 {
			wantBucket = n.freeGPUs
		}
		if n.bucket != wantBucket || (wantBucket > 0 && !c.gpuBuckets[wantBucket].contains(n.Index)) {
			return fmt.Errorf("cluster: node %d in GPU bucket %d, want %d", n.Index, n.bucket, wantBucket)
		}
		wantIdle := n.shared() && n.freeCores == c.cfg.CoresPerNode &&
			n.freeMemGB >= c.cfg.MemGBPerNode-memEps && n.freeGPUs == len(n.devices)
		if n.inIdle != wantIdle || c.idleSet.contains(n.Index) != wantIdle {
			return fmt.Errorf("cluster: node %d idle-set membership %v, want %v", n.Index, n.inIdle, wantIdle)
		}
		wantCPU := n.shared() && n.freeCores > 0
		if n.inCPU != wantCPU || c.cpuSet.contains(n.Index) != wantCPU {
			return fmt.Errorf("cluster: node %d cpu-set membership %v, want %v", n.Index, n.inCPU, wantCPU)
		}
	}
	if wantGPUs != c.freeGPUsShared {
		return fmt.Errorf("cluster: shared free-GPU aggregate %d, nodes say %d", c.freeGPUsShared, wantGPUs)
	}
	if wantCores != c.freeCoresShared {
		return fmt.Errorf("cluster: shared free-core aggregate %d, nodes say %d", c.freeCoresShared, wantCores)
	}
	if wantDownNodes != c.downNodes || wantDownGPUs != c.downGPUs {
		return fmt.Errorf("cluster: down counters nodes=%d gpus=%d, states say nodes=%d gpus=%d",
			c.downNodes, c.downGPUs, wantDownNodes, wantDownGPUs)
	}
	return nil
}
