// Package faults generates the seeded, deterministic failure event streams
// the cluster simulation injects: whole-node crashes, scheduled node drains
// with a repair-time distribution, and per-GPU ECC/Xid-style fatal errors.
// Rates are parameterized as MTBF hours — the same parameterization
// sharing.ReliabilityPlan uses for its analytic lost-work model — so a DES
// run and the analytic study can be driven from one number and cross-checked.
//
// Determinism contract: every stream is a pure function of (Plan, seed,
// identity). Node outage streams are private per node (dist.Stream of a
// salted seed), so node i's failures do not depend on how many events other
// nodes drew; GPU fatal draws are a pure function of (seed, job ID, attempt),
// so they do not depend on event ordering at all. This is what keeps fault
// runs bit-identical per seed and per engine worker count.
package faults

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// Salts keep the fault streams disjoint from the workload generator's
// streams, which may be derived from the same replication seed.
const (
	nodeSalt  = 0xFA17ED_0D15EA5E
	fatalSalt = 0xFA17ED_ECC0FF5E
)

// Plan parameterizes the failure processes. All rates are mean-time-between-
// failures in hours; a zero rate disables that process. The zero Plan injects
// nothing (Empty reports true) and is the production default.
type Plan struct {
	// NodeCrashMTBFHours is the per-node rate of hard crashes: every job on
	// the node is killed, the node goes down and repairs after a random
	// repair time.
	NodeCrashMTBFHours float64
	// NodeDrainMTBFHours is the per-node rate of scheduled drains
	// (maintenance): the node stops accepting work, running jobs finish,
	// then the node goes down for the repair time.
	NodeDrainMTBFHours float64
	// MeanRepairHours is the mean of the exponential down-time distribution.
	// Required positive when either node rate is set.
	MeanRepairHours float64
	// GPUFatalMTBFHours is the per-busy-GPU rate of job-killing device errors
	// (ECC double-bit, Xid). Each GPU a running job holds draws failures
	// independently at this rate — a G-GPU job fails G times as often, the
	// exposure model sharing.ReliabilityStudy prices analytically.
	GPUFatalMTBFHours float64
}

// Empty reports whether the plan injects no faults at all.
func (p Plan) Empty() bool {
	return p.NodeCrashMTBFHours == 0 && p.NodeDrainMTBFHours == 0 && p.GPUFatalMTBFHours == 0
}

// NodeOutages reports whether the plan generates whole-node events.
func (p Plan) NodeOutages() bool {
	return p.NodeCrashMTBFHours > 0 || p.NodeDrainMTBFHours > 0
}

// Validate reports parameterization errors.
func (p Plan) Validate() error {
	switch {
	case p.NodeCrashMTBFHours < 0 || p.NodeDrainMTBFHours < 0 ||
		p.GPUFatalMTBFHours < 0 || p.MeanRepairHours < 0:
		return fmt.Errorf("faults: negative rate in plan %+v", p)
	case p.NodeOutages() && p.MeanRepairHours <= 0:
		return fmt.Errorf("faults: node outages need a positive MeanRepairHours")
	}
	return nil
}

// NodeEventKind distinguishes the whole-node failure modes.
type NodeEventKind int

// The node event kinds.
const (
	// Crash kills every job on the node immediately.
	Crash NodeEventKind = iota
	// Drain stops new placements; running jobs finish before the down time.
	Drain
)

// String returns the kind name.
func (k NodeEventKind) String() string {
	if k == Crash {
		return "crash"
	}
	return "drain"
}

// NodeEvent is one scheduled whole-node outage.
type NodeEvent struct {
	Node    int
	Kind    NodeEventKind
	TimeSec float64
	// RepairSec is the down time once the node reaches the down state.
	RepairSec float64
}

// Injector produces each node's private outage stream lazily. A node has at
// most one outstanding outage: the scheduler asks for the next one only after
// the previous repair completes, so the per-node stream position is a
// deterministic function of that node's own history.
type Injector struct {
	plan Plan
	rngs []*dist.RNG
}

// NewInjector builds an injector for a cluster of the given size. The plan
// must be validated by the caller; a plan without node outages yields an
// injector whose Next always reports ok=false.
func NewInjector(plan Plan, nodes int, seed uint64) *Injector {
	in := &Injector{plan: plan, rngs: make([]*dist.RNG, nodes)}
	for i := range in.rngs {
		in.rngs[i] = dist.Stream(seed^nodeSalt, uint64(i))
	}
	return in
}

// Next samples the node's next outage strictly after nowSec, advancing the
// node's private stream. ok is false when the plan generates no node outages.
func (in *Injector) Next(node int, nowSec float64) (NodeEvent, bool) {
	if !in.plan.NodeOutages() {
		return NodeEvent{}, false
	}
	rng := in.rngs[node]
	// Draw both processes in a fixed order so the stream advances identically
	// regardless of which one wins the race.
	tCrash, tDrain := math.Inf(1), math.Inf(1)
	if in.plan.NodeCrashMTBFHours > 0 {
		tCrash = rng.ExpFloat64() * in.plan.NodeCrashMTBFHours * 3600
	}
	if in.plan.NodeDrainMTBFHours > 0 {
		tDrain = rng.ExpFloat64() * in.plan.NodeDrainMTBFHours * 3600
	}
	ev := NodeEvent{Node: node, Kind: Crash, TimeSec: nowSec + tCrash}
	if tDrain < tCrash {
		ev.Kind = Drain
		ev.TimeSec = nowSec + tDrain
	}
	ev.RepairSec = rng.ExpFloat64() * in.plan.MeanRepairHours * 3600
	return ev, true
}

// AttemptFatal samples the per-GPU fatal-error process for one job attempt:
// each of the attempt's gpus draws an exponential time-to-fatal with mean
// GPUFatalMTBFHours, and the earliest one kills the attempt. It returns the
// kill offset in seconds from attempt start and ok=true when that offset
// falls inside the attempt's run time; ok=false when every device outlives
// the attempt (or the process is disabled).
//
// The draw is a pure function of (plan, seed, jobID, attempt) — independent
// of simulation event ordering — so requeued attempts re-roll fresh failures
// deterministically.
func AttemptFatal(p Plan, seed uint64, jobID int64, attempt, gpus int, attemptSec float64) (float64, bool) {
	if p.GPUFatalMTBFHours <= 0 || gpus <= 0 || attemptSec <= 0 {
		return 0, false
	}
	rng := dist.Stream(dist.StreamSeed(seed^fatalSalt, uint64(jobID)), uint64(attempt))
	mtbfSec := p.GPUFatalMTBFHours * 3600
	first := math.Inf(1)
	for g := 0; g < gpus; g++ {
		if t := rng.ExpFloat64() * mtbfSec; t < first {
			first = t
		}
	}
	if first >= attemptSec {
		return 0, false
	}
	return first, true
}
