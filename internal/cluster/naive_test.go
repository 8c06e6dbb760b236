package cluster

// This file preserves the pre-index placement algorithm as a read-only
// executable specification: a full scan over every node, with the candidate
// sort and take rules exactly as they were before the free-capacity index.
// auditAllocate compares an indexed placement against it, and the
// allocation-equivalence tests drive every grant of randomized request
// streams through auditAllocate. Free-GPU counts are recomputed from raw
// device state here, so the audit is independent of the counters the index
// maintains. It is test code only; no build of the package carries it.

import "fmt"

// auditAllocate runs the naive full-scan planner, then TryAllocate. Any
// divergence in outcome or placement, or a broken invariant after the grant,
// is returned as an error.
func auditAllocate(c *Cluster, req Request) (*Allocation, error) {
	wantShares, wantErr := c.naivePlan(req)
	alloc, err := c.TryAllocate(req)
	if (err == nil) != (wantErr == nil) {
		return nil, fmt.Errorf("cluster: audit divergence for job %d: indexed err=%v, naive err=%v",
			req.JobID, err, wantErr)
	}
	if err != nil {
		return nil, err
	}
	if !sharesEqual(alloc.Shares, wantShares) {
		return nil, fmt.Errorf("cluster: audit divergence for job %d:\nindexed: %+v\nnaive:   %+v",
			req.JobID, alloc.Shares, wantShares)
	}
	if ierr := c.CheckInvariants(); ierr != nil {
		return nil, fmt.Errorf("cluster: audit after job %d: %w", req.JobID, ierr)
	}
	return alloc, nil
}

// sharesEqual compares two placements node-for-node, device-for-device.
func sharesEqual(a, b []NodeShare) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Cores != b[i].Cores || a[i].MemGB != b[i].MemGB ||
			len(a[i].GPUIDs) != len(b[i].GPUIDs) {
			return false
		}
		for j := range a[i].GPUIDs {
			if a[i].GPUIDs[j] != b[i].GPUIDs[j] {
				return false
			}
		}
	}
	return true
}

// naivePlan computes the shares the pre-index algorithm would grant for req,
// or the error it would return, without mutating any cluster state. It
// dispatches like TryAllocate.
func (c *Cluster) naivePlan(req Request) ([]NodeShare, error) {
	if req.GPUs > 0 && req.Exclusive {
		return c.naivePlanExclusiveGPU(req)
	}
	if req.GPUs > 0 {
		return c.naivePlanGPU(req)
	}
	if req.Exclusive {
		return c.naivePlanExclusiveCPU(req)
	}
	return c.naivePlanSharedCPU(req)
}

// deviceFreeGPUs counts free devices by scanning raw device state.
func deviceFreeGPUs(n *Node) int {
	fg := 0
	for _, d := range n.devices {
		if d.Free() {
			fg++
		}
	}
	return fg
}

// naivePlanGPU is the pre-index allocateGPUJob: collect candidates over all
// nodes, insertion-sort best-fit (job fits one node) or widest-first (job
// spans nodes), then walk taking the per-node clamp of GPUs, cores and
// memory.
func (c *Cluster) naivePlanGPU(req Request) ([]NodeShare, error) {
	type candidate struct {
		node     *Node
		freeGPUs int
	}
	var cands []candidate
	totalFree := 0
	for _, n := range c.nodes {
		if n.state != NodeUp || n.Exclusive() {
			continue
		}
		fg := deviceFreeGPUs(n)
		if fg == 0 {
			continue
		}
		if n.freeCores < req.CoresPerGPU || n.freeMemGB < req.MemGBPerGPU {
			continue
		}
		cands = append(cands, candidate{node: n, freeGPUs: fg})
		totalFree += fg
	}
	if totalFree < req.GPUs {
		return nil, ErrInsufficient{Req: req}
	}
	fitsOneNode := false
	for _, cand := range cands {
		if cand.freeGPUs >= req.GPUs {
			fitsOneNode = true
			break
		}
	}
	better := func(a, b candidate) bool {
		if a.freeGPUs != b.freeGPUs {
			if fitsOneNode {
				aFits, bFits := a.freeGPUs >= req.GPUs, b.freeGPUs >= req.GPUs
				if aFits != bFits {
					return aFits
				}
				return a.freeGPUs < b.freeGPUs
			}
			return a.freeGPUs > b.freeGPUs
		}
		return a.node.Index < b.node.Index
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && better(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	var shares []NodeShare
	remaining := req.GPUs
	for _, cand := range cands {
		if remaining == 0 {
			break
		}
		n := cand.node
		take := remaining
		if take > cand.freeGPUs {
			take = cand.freeGPUs
		}
		maxByCores := take
		if req.CoresPerGPU > 0 {
			maxByCores = n.freeCores / req.CoresPerGPU
		}
		maxByMem := take
		if req.MemGBPerGPU > 0 {
			maxByMem = int(n.freeMemGB / req.MemGBPerGPU)
		}
		if take > maxByCores {
			take = maxByCores
		}
		if take > maxByMem {
			take = maxByMem
		}
		if take == 0 {
			continue
		}
		share := NodeShare{Node: n.Index, Cores: take * req.CoresPerGPU, MemGB: float64(take) * req.MemGBPerGPU}
		granted := 0
		for _, d := range n.devices {
			if granted == take {
				break
			}
			if d.Free() {
				share.GPUIDs = append(share.GPUIDs, d.ID)
				granted++
			}
		}
		shares = append(shares, share)
		remaining -= take
	}
	if remaining > 0 {
		return nil, ErrInsufficient{Req: req}
	}
	return shares, nil
}

// naiveIdleNodes is the pre-index idleNodes scan: up to want fully idle
// nodes in ascending index order.
func (c *Cluster) naiveIdleNodes(want int) []*Node {
	var free []*Node
	for _, n := range c.nodes {
		if n.state != NodeUp || n.Exclusive() || n.freeCores != c.cfg.CoresPerNode ||
			n.freeMemGB < c.cfg.MemGBPerNode-memEps || deviceFreeGPUs(n) != len(n.devices) {
			continue
		}
		free = append(free, n)
		if len(free) == want {
			break
		}
	}
	return free
}

// naivePlanExclusiveCPU is the pre-index allocateExclusiveCPUJob plus the
// AvoidGPUNodes reservation guard.
func (c *Cluster) naivePlanExclusiveCPU(req Request) ([]NodeShare, error) {
	if req.AvoidGPUNodes && c.cfg.GPUsPerNode > 0 {
		return nil, ErrInsufficient{Req: req}
	}
	nodesNeeded := (req.Cores + c.cfg.CoresPerNode - 1) / c.cfg.CoresPerNode
	if nodesNeeded < 1 {
		nodesNeeded = 1
	}
	free := c.naiveIdleNodes(nodesNeeded)
	if len(free) < nodesNeeded {
		return nil, ErrInsufficient{Req: req}
	}
	var shares []NodeShare
	for _, n := range free {
		shares = append(shares, NodeShare{Node: n.Index, Cores: c.cfg.CoresPerNode, MemGB: c.cfg.MemGBPerNode})
	}
	return shares, nil
}

// naivePlanExclusiveGPU is the pre-index allocateExclusiveGPUJob.
func (c *Cluster) naivePlanExclusiveGPU(req Request) ([]NodeShare, error) {
	perNode := c.cfg.GPUsPerNode
	if perNode < 1 {
		return nil, ErrInsufficient{Req: req}
	}
	nodesNeeded := (req.GPUs + perNode - 1) / perNode
	free := c.naiveIdleNodes(nodesNeeded)
	if len(free) < nodesNeeded {
		return nil, ErrInsufficient{Req: req}
	}
	var shares []NodeShare
	remaining := req.GPUs
	for _, n := range free {
		share := NodeShare{Node: n.Index, Cores: c.cfg.CoresPerNode, MemGB: c.cfg.MemGBPerNode}
		for _, d := range n.devices {
			if remaining == 0 {
				break
			}
			share.GPUIDs = append(share.GPUIDs, d.ID)
			remaining--
		}
		shares = append(shares, share)
	}
	return shares, nil
}

// naivePlanSharedCPU is the pre-index allocateSharedCPUJob (first-fit over
// all nodes in index order) plus the AvoidGPUNodes reservation guard.
func (c *Cluster) naivePlanSharedCPU(req Request) ([]NodeShare, error) {
	var shares []NodeShare
	coresLeft, memLeft := req.Cores, req.MemGB
	for _, n := range c.nodes {
		if coresLeft <= 0 && memLeft <= 0 {
			break
		}
		if n.state != NodeUp || n.Exclusive() || n.freeCores == 0 {
			continue
		}
		if req.AvoidGPUNodes && deviceFreeGPUs(n) > 0 {
			continue
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
			continue
		}
		if takeCores < 0 {
			takeCores = 0
		}
		if takeMem < 0 {
			takeMem = 0
		}
		shares = append(shares, NodeShare{Node: n.Index, Cores: takeCores, MemGB: takeMem})
		coresLeft -= takeCores
		memLeft -= takeMem
	}
	if coresLeft > 0 || memLeft > 0 {
		return nil, ErrInsufficient{Req: req}
	}
	return shares, nil
}
