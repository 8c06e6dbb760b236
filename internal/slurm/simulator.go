// Package slurm is a discrete-event simulation of the Supercloud workload
// manager: a single queue for all job shapes (the system's §II
// configuration), greedy FIFO scheduling with skip-ahead backfill, high
// priority and dense placement for multi-GPU jobs (§V), CPU-slice
// co-location of GPU jobs on shared nodes (§III's explanation for the short
// GPU queue waits), exclusive whole-node grants for CPU jobs, and
// prolog/epilog hooks that drive the monitoring pipeline.
//
// The simulator exists to show that the paper's scheduling findings emerge
// from the policy rather than from calibration: the same job specs fed
// through this scheduler reproduce the Fig. 3b ordering (GPU jobs wait far
// less than CPU jobs) and §V's size-independent multi-GPU waits, and an
// ablation that forces exclusive nodes for GPU jobs destroys both.
package slurm

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/monitor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Policy selects scheduler behavior variants.
type Policy struct {
	// Colocate lets GPU jobs share node CPUs (the production policy). When
	// false — the ablation — every GPU job demands exclusive nodes like a
	// traditional HPC scheduler.
	Colocate bool
	// MultiGPUPriority schedules multi-GPU jobs ahead of the queue (§V).
	MultiGPUPriority bool
	// BackfillDepth bounds how much queue a scheduling pass examines once
	// jobs start blocking: the pass stops as soon as BackfillDepth jobs have
	// been found blocked, so at most that many blocked jobs are skipped over
	// in search of backfill. 0 disables backfill entirely — a blocked queue
	// head blocks everything behind it (strict FIFO).
	BackfillDepth int
	// ReservationAgeSec protects large jobs from backfill starvation: once
	// any blocked GPU job has waited this long, backfill pauses for GPU jobs
	// behind it so freed devices accumulate for it, and CPU jobs are kept
	// off nodes with free GPUs so they cannot strand the reserved devices.
	// 0 disables the guard.
	ReservationAgeSec float64
	// Predict, when enabled, softens the reservation fence with predicted
	// runtimes: GPU candidates whose forecast completion lands before the
	// reservation's shadow time still backfill (see predsched.go). The zero
	// value keeps the default conservative path byte-identical.
	Predict PredictPolicy
}

// DefaultPolicy returns the production Supercloud policy.
func DefaultPolicy() Policy {
	return Policy{Colocate: true, MultiGPUPriority: true, BackfillDepth: 256, ReservationAgeSec: 6 * 3600}
}

// Config parameterizes a simulation run.
type Config struct {
	Cluster cluster.Config
	Policy  Policy
	// Monitor, when non-nil, is driven by the prolog/epilog hooks.
	Monitor *monitor.Config
	// MonitorSeed seeds the sampling noise streams.
	MonitorSeed uint64
	// PowerModel evaluates GPU power for monitoring.
	PowerModel gpu.PowerModel
	// DetailedJobs marks jobs whose full time series is retained.
	DetailedJobs map[int64]bool
	// AuditPlacement cross-checks every allocation against the naive
	// full-scan reference placement (cluster.EnableAudit) and re-verifies
	// the cluster invariants after each grant. Test/debug only — it restores
	// the full node scan the capacity index exists to avoid.
	AuditPlacement bool
	// Faults injects seeded failures (node crashes, drains, per-GPU fatal
	// errors). The zero plan disables injection entirely and leaves every
	// simulation byte-identical to a fault-free run.
	Faults faults.Plan
	// FaultSeed seeds the failure streams, independently of MonitorSeed.
	FaultSeed uint64
	// Requeue governs recovery of jobs killed by injected failures.
	Requeue RequeuePolicy
	// MonitorFaults degrades the collectors on the listed nodes (requires
	// Monitor), so collector faults and cluster faults can run in the same
	// experiment.
	MonitorFaults monitor.FaultPlan
	// specEventQueue runs the simulation on the container/heap reference
	// event queue (the executable spec in naive.go) instead of the calendar
	// queue. The differential equivalence harness drives both and asserts
	// byte-identical output; only in-package tests set it.
	specEventQueue bool
	// auditEvents shadows the calendar queue with the heap spec and cross-
	// checks every dequeue at runtime. Test only — it doubles the queue
	// work the calendar queue exists to avoid.
	auditEvents bool
}

// DefaultConfig returns a paper-shaped configuration without monitoring.
func DefaultConfig() Config {
	return Config{
		Cluster:    cluster.SupercloudConfig(),
		Policy:     DefaultPolicy(),
		PowerModel: gpu.DefaultPowerModel(),
		Requeue:    DefaultRequeuePolicy(),
	}
}

// Result is one job's scheduling outcome.
type Result struct {
	JobID    int64
	StartSec float64
	EndSec   float64
	WaitSec  float64
	NodeSpan int
	GPUs     []gpu.DeviceID
	// Shares records the node slices the job held while running, so
	// post-hoc audits (the scheduler-invariant property tests) can verify
	// capacity conservation from results alone.
	Shares []cluster.NodeShare
	// Requeues counts how many times injected failures killed and requeued
	// the job before the final successful attempt.
	Requeues int
	// LostSec is the wall time its failed attempts destroyed (after
	// checkpoint credit).
	LostSec float64
}

// Stats aggregates a run.
type Stats struct {
	Completed       int
	MaxQueueLen     int
	GPUBusyHours    float64 // integral of busy GPUs over time
	HorizonSec      float64 // makespan of the simulation
	TotalGPUs       int
	MonitorOverflow int
	// Scheduler hot-path counters (perf observability, not figures).
	SchedulePasses  int64 // queue scans triggered by events
	AllocAttempts   int64 // TryAllocate calls issued by the policy loop
	AllocCacheHits  int64 // pending jobs skipped via the blocked-verdict cache
	EventsProcessed int64 // events popped off the queue by the hot loop
	// Fault-injection and recovery outcomes (all zero without a fault plan).
	NodeCrashes       int
	NodeDrains        int
	NodeRepairs       int
	GPUFatals         int
	Requeues          int
	JobsAbandoned     int     // jobs dropped after exhausting retries
	LostGPUHours      float64 // work destroyed by kills, after checkpoint credit
	RecoveredGPUHours float64 // checkpointed work carried across attempts
	DownGPUHours      float64 // integral of down-node GPU capacity over time
	// Collector-fault outcomes from the monitoring pipeline.
	MonitorDropped int64
	MonitorStalled int
	// Prediction-aware backfill outcomes (all zero unless Policy.Predict is
	// enabled). Hits/misses score each completed attempt against the
	// estimate the scheduler last used for it; a miss means the job overran
	// its prediction and the mispredict fallback re-projected it at its
	// requested limit.
	PredictHits   int
	PredictMisses int
	// PredictedBackfills counts GPU jobs admitted past an armed reservation
	// on the strength of a prediction; PredictedBackfillWaitSec sums their
	// queue waits (the wait-time delta against the conservative fence, which
	// would have held them until the reserved job started).
	PredictedBackfills       int64
	PredictedBackfillWaitSec float64
	// PredictAbsErrSec sums |actual − estimated| runtime over scored
	// completions; divide by Completed for the run's mean absolute error.
	PredictAbsErrSec float64
}

// MeanGPUOccupancy returns busy-GPU-hours over capacity-hours.
func (s Stats) MeanGPUOccupancy() float64 {
	if s.HorizonSec <= 0 || s.TotalGPUs == 0 {
		return 0
	}
	return s.GPUBusyHours / (s.HorizonSec / 3600 * float64(s.TotalGPUs))
}

// Availability returns the mean fraction of GPU capacity in service over the
// run: 1 − down-GPU-hours over capacity-hours.
func (s Stats) Availability() float64 {
	if s.HorizonSec <= 0 || s.TotalGPUs == 0 {
		return 1
	}
	return 1 - s.DownGPUHours/(s.HorizonSec/3600*float64(s.TotalGPUs))
}

// GoodputFraction returns the fraction of busy GPU-hours that survived as
// retained work: 1 − destroyed work over busy time.
func (s Stats) GoodputFraction() float64 {
	if s.GPUBusyHours <= 0 {
		return 1
	}
	return 1 - s.LostGPUHours/s.GPUBusyHours
}

// event is a simulation event.
type event struct {
	timeSec float64
	kind    eventKind
	idx     int // spec index (submit/finish/fatal/requeue) or node index
	seq     int // tie-break for determinism
	arg     int // attempt stamp: kills invalidate in-flight finish/fatal events
}

type eventKind int

const (
	evSubmit eventKind = iota
	evFinish
	evNodeFault
	evNodeRepair
	evJobFatal
	evRequeue
)

// before reports whether e precedes o in the global event order: time, then
// kind rank, then sequence. Sequence numbers are unique, so the order is
// total — every correct priority queue (the calendar queue, the heap spec)
// pops the exact same event sequence, which is what makes the differential
// harness's byte-identity claim meaningful.
func (e event) before(o event) bool {
	if e.timeSec != o.timeSec {
		return e.timeSec < o.timeSec
	}
	if ra, rb := e.kind.rank(), o.kind.rank(); ra != rb {
		return ra < rb
	}
	return e.seq < o.seq
}

// eventQueue is the simulator's future-event set. Implementations must
// dequeue in exactly the total order event.before defines; the calendar
// queue is the production structure, the heap in naive.go the spec, and
// eventAudit the lockstep cross-check of the two.
type eventQueue interface {
	Len() int
	Push(event)
	Pop() (event, bool)
}

// rank orders same-instant events: capacity returns (finishes, repairs)
// before capacity leaves (node faults, job kills), and both before the queue
// grows (requeues, submits) — so each scheduling pass sees settled cluster
// state. For the fault-free kinds this reduces to the original
// finishes-before-submits rule, keeping fault-free runs byte-identical.
func (k eventKind) rank() int {
	switch k {
	case evFinish:
		return 0
	case evNodeRepair:
		return 1
	case evNodeFault:
		return 2
	case evJobFatal:
		return 3
	case evRequeue:
		return 4
	default: // evSubmit
		return 5
	}
}

// Simulator runs job specs through the scheduler.
type Simulator struct {
	cfg     Config
	cluster *cluster.Cluster
	pipe    *monitor.Pipeline

	specs []workload.JobSpec
	// The pending queue, split by priority class: when MultiGPUPriority is
	// on, multi-GPU jobs scan before everything else. Each queue holds spec
	// indices in submit order, so the pair is equivalent to the stable
	// multi-first sort the scheduler used to apply — without re-sorting a
	// copy of the queue on every pass.
	pendMulti  []int
	pendSingle []int
	pendingN   int
	// startedMark flags spec indices started during the current pass so the
	// queues compact in place afterwards.
	startedMark []bool
	// Blocked-verdict cache. Within one epoch (no release since the verdict)
	// cluster capacity only shrinks, so a job seen blocked stays blocked and
	// TryAllocate need not be retried. blockedRestricted records whether the
	// verdict was computed under the reservation's AvoidGPUNodes restriction;
	// such a verdict only remains valid while the restriction is active. A
	// saturated cluster thus short-circuits the whole scan.
	epoch             uint64
	blockedEpoch      []uint64
	blockedRestricted []bool

	events eventQueue
	// next buffers one popped-but-unprocessed event so the sharded window
	// scheduler can peek the next event time without an extra queue API.
	next      event
	hasNext   bool
	seq       int
	processed int64
	now       float64
	results   map[int64]*Result
	// resArena backs every *Result in results with one per-run allocation;
	// start() reuses each slot's GPU/share slices across fault-requeue
	// attempts instead of reallocating them.
	resArena []Result
	// Slab allocators for the result slices: per-job GPU and share lists are
	// cut from large chunks, so a run performs a handful of allocations
	// instead of two per started job — and the chunks are pointer-dense
	// regions the GC scans once instead of half a million tiny objects.
	gpuSlab   []gpu.DeviceID
	shareSlab []cluster.NodeShare
	monitors  map[int64]*monitor.JobMonitor
	stats     Stats
	busyGPUs  int
	lastTick  float64
	telemetry *Telemetry
	// pred holds the online prediction state; nil unless Policy.Predict is
	// enabled, so the default path pays nothing.
	pred *schedPredictor

	// Fault-injection state, allocated only when cfg.Faults is non-empty so
	// the fault-free hot path carries no extra work. faultsOn sits next to
	// the ckptCats byte array so the booleans share one padded word.
	injector  *faults.Injector
	nodeFault []faults.NodeEvent // the one outstanding outage per node
	runState  []jobRun
	specIdx   map[int64]int
	liveJobs  int // jobs not yet completed or abandoned
	downGPUs  int // mirrors cluster.DownGPUs for the time integral
	ckptEvery float64
	ckptCats  [trace.NumCategories]bool
	faultsOn  bool
}

// NewSimulator builds a simulator.
func NewSimulator(cfg Config) (*Simulator, error) {
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	if cfg.AuditPlacement {
		cl.EnableAudit()
	}
	s := &Simulator{
		cfg:      cfg,
		cluster:  cl,
		epoch:    1,
		results:  make(map[int64]*Result),
		monitors: make(map[int64]*monitor.JobMonitor),
	}
	if cfg.Monitor != nil {
		if cfg.PowerModel == nil {
			return nil, fmt.Errorf("slurm: monitoring requires a power model")
		}
		s.pipe, err = monitor.NewPipeline(*cfg.Monitor, cfg.MonitorSeed)
		if err != nil {
			return nil, err
		}
	}
	if len(cfg.MonitorFaults) > 0 {
		if s.pipe == nil {
			return nil, fmt.Errorf("slurm: monitor faults require monitoring")
		}
		s.pipe.InjectFaults(cfg.MonitorFaults)
	}
	return s, nil
}

// Run schedules every spec to completion and returns per-job results plus
// aggregate stats. Specs must be sorted by SubmitSec (as GenerateSpecs
// produces them).
func (s *Simulator) Run(specs []workload.JobSpec) (map[int64]*Result, Stats, error) {
	return s.RunContext(context.Background(), specs)
}

// ctxCheckInterval is how many events RunContext processes between context
// checks — frequent enough that cancellation lands promptly, cheap enough
// that the hot loop doesn't feel it.
const ctxCheckInterval = 1024

// RunContext is Run with cooperative cancellation: the event loop polls
// ctx.Err() every ctxCheckInterval events, so engine.Run's cancellation stops
// an in-flight simulation instead of only skipping future replicates.
func (s *Simulator) RunContext(ctx context.Context, specs []workload.JobSpec) (map[int64]*Result, Stats, error) {
	if err := s.prepare(specs); err != nil {
		return nil, s.stats, err
	}
	if _, err := s.runUntil(ctx, math.Inf(1)); err != nil {
		return nil, s.stats, err
	}
	return s.finalize()
}

// prepare stages a run: per-job state, the initial submit events, the event
// queue (calendar by default, heap spec or lockstep audit under the test
// configs), and the fault machinery — which pushes each node's first outage
// once the queue exists.
func (s *Simulator) prepare(specs []workload.JobSpec) error {
	s.specs = specs
	n := len(specs)
	s.results = make(map[int64]*Result, n)
	s.resArena = make([]Result, n)
	s.startedMark = make([]bool, n)
	s.blockedEpoch = make([]uint64, n)
	s.blockedRestricted = make([]bool, n)
	initial := make([]event, n)
	for i := range specs {
		initial[i] = event{timeSec: specs[i].SubmitSec, kind: evSubmit, idx: i, seq: s.seq}
		s.seq++
	}
	switch {
	case s.cfg.auditEvents:
		s.events = newEventAudit(newCalQueue(initial), naiveNewEventQueue(initial))
	case s.cfg.specEventQueue:
		s.events = naiveNewEventQueue(initial)
	default:
		s.events = newCalQueue(initial)
	}
	if s.cfg.Policy.Predict.Enabled {
		s.pred = newSchedPredictor(s.cfg.Policy.Predict, n, s.cfg.MonitorSeed)
	}
	return s.setupFaults()
}

// peekNext exposes the next event without consuming it, buffering it in
// s.next. The sharded window scheduler uses it to find the barrier time.
func (s *Simulator) peekNext() (event, bool) {
	if !s.hasNext {
		e, ok := s.events.Pop()
		if !ok {
			return event{}, false
		}
		s.next, s.hasNext = e, true
	}
	return s.next, true
}

// nextEventTime reports the timestamp of the next queued event, if any.
func (s *Simulator) nextEventTime() (float64, bool) {
	e, ok := s.peekNext()
	return e.timeSec, ok
}

// runUntil processes events with timestamps strictly below limit and reports
// whether the queue drained. With limit=+Inf it is the whole event loop; the
// sharded mode calls it with successive window boundaries so shards never run
// ahead of a synchronization barrier.
func (s *Simulator) runUntil(ctx context.Context, limit float64) (bool, error) {
	for {
		e, ok := s.peekNext()
		if !ok {
			return true, nil
		}
		if e.timeSec >= limit {
			return false, nil
		}
		s.hasNext = false
		if s.processed%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return false, fmt.Errorf("slurm: run canceled after %d events: %w", s.processed, err)
			}
		}
		s.processed++
		s.advance(e.timeSec)
		switch e.kind {
		case evSubmit:
			if s.cfg.Policy.MultiGPUPriority && s.specs[e.idx].NumGPUs > 1 {
				s.pendMulti = append(s.pendMulti, e.idx)
			} else {
				s.pendSingle = append(s.pendSingle, e.idx)
			}
			s.pendingN++
			if s.pendingN > s.stats.MaxQueueLen {
				s.stats.MaxQueueLen = s.pendingN
			}
		case evFinish:
			if err := s.finish(e); err != nil {
				return false, err
			}
		case evNodeFault:
			if err := s.onNodeFault(e.idx); err != nil {
				return false, err
			}
		case evNodeRepair:
			if err := s.onNodeRepair(e.idx); err != nil {
				return false, err
			}
		case evJobFatal:
			if err := s.onJobFatal(e); err != nil {
				return false, err
			}
		case evRequeue:
			s.onRequeue(e.idx)
		}
		if err := s.schedule(); err != nil {
			return false, err
		}
		if s.telemetry != nil {
			s.telemetry.record(s.now, s.busyGPUs, s.pendingN, s.downGPUs)
		}
	}
}

// finalize checks the drain and closes out the run's aggregate stats.
func (s *Simulator) finalize() (map[int64]*Result, Stats, error) {
	if s.pendingN > 0 {
		return nil, s.stats, fmt.Errorf("slurm: %d jobs still pending at drain", s.pendingN)
	}
	s.stats.Completed = len(s.results)
	s.stats.HorizonSec = s.now
	s.stats.TotalGPUs = s.cfg.Cluster.TotalGPUs()
	s.stats.EventsProcessed = s.processed
	if s.pipe != nil {
		s.stats.MonitorOverflow = s.pipe.Overflows()
		s.stats.MonitorDropped = s.pipe.DroppedSamples()
		s.stats.MonitorStalled = s.pipe.StalledJobs()
	}
	return s.results, s.stats, nil
}

// Feasible partitions specs into jobs the cluster can ever satisfy under
// cfg's policy and jobs whose requests exceed total capacity — the ones real
// Slurm rejects at submit with "exceeds partition limits". Without this gate
// a down-scaled cluster deadlocks the drain: an infeasible job sits at the
// queue head forever. The replicated experiment engine and cmd/simcloud
// filter through it and report the rejection count.
func Feasible(cfg Config, specs []workload.JobSpec) (ok, rejected []workload.JobSpec) {
	ok = make([]workload.JobSpec, 0, len(specs))
	for i := range specs {
		sp := specs[i]
		if feasible(cfg, &sp) {
			ok = append(ok, sp)
		} else {
			rejected = append(rejected, sp)
		}
	}
	return ok, rejected
}

// feasible reports whether an idle cluster could grant the spec's effective
// request (the same transform the scheduler applies).
func feasible(cfg Config, sp *workload.JobSpec) bool {
	req := requestFor(cfg, sp)
	cl := cfg.Cluster
	if sp.IsGPU() {
		// Per idle node, the grantable GPU count is bounded by the device
		// count and by the accompanying CPU/memory slices.
		g := cl.GPUsPerNode
		if g < 1 {
			g = 1
		}
		if req.CoresPerGPU > 0 {
			if byCores := cl.CoresPerNode / req.CoresPerGPU; byCores < g {
				g = byCores
			}
		}
		if req.MemGBPerGPU > 0 {
			if byMem := int(cl.MemGBPerNode / req.MemGBPerGPU); byMem < g {
				g = byMem
			}
		}
		return g >= 1 && req.GPUs <= cl.Nodes*g
	}
	if req.Exclusive {
		nodesNeeded := (req.Cores + cl.CoresPerNode - 1) / cl.CoresPerNode
		if nodesNeeded < 1 {
			nodesNeeded = 1
		}
		return nodesNeeded <= cl.Nodes
	}
	return req.Cores <= cl.TotalCores() && req.MemGB <= float64(cl.Nodes)*cl.MemGBPerNode
}

// Simulate is the one-shot convenience the replication engine fans out:
// build a simulator for cfg and run specs to completion.
func Simulate(cfg Config, specs []workload.JobSpec) (map[int64]*Result, Stats, error) {
	sim, err := NewSimulator(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	return sim.Run(specs)
}

// push adds an event with a deterministic sequence number.
func (s *Simulator) push(e event) {
	e.seq = s.seq
	s.seq++
	if s.hasNext {
		// A peeked event is parked outside the queue; return it so the new
		// event cannot jump ahead of the ordering contract.
		s.events.Push(s.next)
		s.hasNext = false
	}
	s.events.Push(e)
}

// advance moves simulated time forward, integrating GPU busy time and
// down-node capacity loss.
func (s *Simulator) advance(t float64) {
	if t < s.now {
		t = s.now
	}
	s.stats.GPUBusyHours += float64(s.busyGPUs) * (t - s.lastTick) / 3600
	if s.downGPUs > 0 {
		s.stats.DownGPUHours += float64(s.downGPUs) * (t - s.lastTick) / 3600
	}
	s.lastTick = t
	s.now = t
}

// request converts a spec into a cluster request under the active policy.
func (s *Simulator) request(sp *workload.JobSpec) cluster.Request {
	return requestFor(s.cfg, sp)
}

// requestFor is the policy transform shared by the scheduler and the
// submit-time feasibility gate.
func requestFor(cfg Config, sp *workload.JobSpec) cluster.Request {
	if sp.IsGPU() {
		if cfg.Policy.Colocate {
			return cluster.Request{
				JobID:       sp.ID,
				GPUs:        sp.NumGPUs,
				CoresPerGPU: sp.CoresPerGPU,
				MemGBPerGPU: sp.MemGBPerGPU,
			}
		}
		// Ablation: GPU jobs reserve whole idle nodes, like classic HPC
		// exclusive reservations — no other job may share their nodes.
		return cluster.Request{
			JobID:     sp.ID,
			GPUs:      sp.NumGPUs,
			Exclusive: true,
		}
	}
	return cluster.Request{
		JobID:     sp.ID,
		Cores:     sp.Cores,
		MemGB:     sp.MemGB,
		Exclusive: sp.Exclusive,
	}
}

// schedule makes a pass over the queue in priority order (multi-GPU jobs
// first when MultiGPUPriority is on, submit order within each class),
// starting everything that fits. The pass stops once BackfillDepth jobs have
// been found blocked. Jobs already known to be blocked in the current epoch
// are skipped without re-asking the cluster — capacity only shrinks between
// releases, so the verdict cannot have improved.
func (s *Simulator) schedule() error {
	if s.pendingN == 0 {
		return nil
	}
	s.stats.SchedulePasses++
	depth := s.cfg.Policy.BackfillDepth
	ageSec := s.cfg.Policy.ReservationAgeSec
	blocked := 0
	reserving := false
	stop := false
	startedAny := false
	// arm grants the pass's reservation to a blocked GPU job once it has
	// aged past the guard threshold — whatever its position in the queue,
	// not just at the head. Everything scanned after it backfills only
	// around the hold: GPU jobs are skipped (or, under Policy.Predict,
	// admitted when their forecast completion beats the reservation's shadow
	// time), and CPU jobs must avoid nodes with free GPUs.
	reservedIdx := -1
	var shadow float64
	shadowValid := false
	arm := func(idx int, sp *workload.JobSpec) {
		if !reserving && ageSec > 0 && s.now-sp.SubmitSec >= ageSec {
			reserving = true
			reservedIdx = idx
		}
	}
	for _, queue := range [2][]int{s.pendMulti, s.pendSingle} {
		for _, idx := range queue {
			if depth > 0 && blocked >= depth {
				stop = true
			}
			if stop {
				break
			}
			sp := &s.specs[idx]
			isGPU := sp.IsGPU()
			predAdmit := false
			if reserving && isGPU {
				// An aged blocked GPU job holds a reservation: freed GPUs
				// accumulate for it instead of leaking to backfill — unless
				// prediction projects this candidate done before the shadow.
				if s.pred == nil || !s.predictiveAdmit(sp, reservedIdx, &shadow, &shadowValid) {
					continue
				}
				predAdmit = true
			}
			if s.blockedEpoch[idx] == s.epoch && (!s.blockedRestricted[idx] || reserving) {
				s.stats.AllocCacheHits++
				blocked++
				if depth == 0 {
					stop = true // strict FIFO: a blocked head blocks the queue
				} else if isGPU {
					arm(idx, sp)
				}
				continue
			}
			req := s.request(sp)
			if reserving && !isGPU {
				// Keep CPU jobs off the nodes whose GPUs are being reserved.
				req.AvoidGPUNodes = true
			}
			s.stats.AllocAttempts++
			alloc, err := s.cluster.TryAllocate(req)
			if err != nil {
				if _, soft := err.(cluster.ErrInsufficient); soft {
					blocked++
					s.blockedEpoch[idx] = s.epoch
					s.blockedRestricted[idx] = req.AvoidGPUNodes
					if depth == 0 {
						stop = true
					} else if isGPU {
						arm(idx, sp)
					}
					continue
				}
				return err
			}
			s.startedMark[idx] = true
			startedAny = true
			s.start(idx, alloc)
			if predAdmit {
				s.stats.PredictedBackfills++
				s.stats.PredictedBackfillWaitSec += s.now - sp.SubmitSec
			}
		}
		if stop {
			break
		}
	}
	if startedAny {
		s.pendMulti = s.compactQueue(s.pendMulti)
		s.pendSingle = s.compactQueue(s.pendSingle)
	}
	return nil
}

// compactQueue removes started jobs from a pending queue in place, clearing
// their marks and the pending count as it goes.
func (s *Simulator) compactQueue(q []int) []int {
	out := q[:0]
	for _, idx := range q {
		if s.startedMark[idx] {
			s.startedMark[idx] = false
			s.pendingN--
			continue
		}
		out = append(out, idx)
	}
	return out
}

// start begins execution of a granted job attempt: records the result, runs
// the prolog, and schedules the finish event — plus, under a fault plan, any
// fatal error drawn against the attempt.
func (s *Simulator) start(idx int, alloc *cluster.Allocation) {
	sp := &s.specs[idx]
	// The result lives in the per-run arena; requeued attempts reuse the
	// slot's GPU and share slices, and first attempts cut them from slabs.
	res := &s.resArena[idx]
	ngpus := 0
	for i := range alloc.Shares {
		ngpus += len(alloc.Shares[i].GPUIDs)
	}
	shares := res.Shares[:0]
	if cap(shares) < len(alloc.Shares) {
		shares = s.allocShares(len(alloc.Shares))
	}
	shares = append(shares, alloc.Shares...)
	gpus := res.GPUs[:0]
	if cap(gpus) < ngpus {
		gpus = s.allocGPUs(ngpus)
	}
	for i := range alloc.Shares {
		gpus = append(gpus, alloc.Shares[i].GPUIDs...)
	}
	*res = Result{
		JobID:    sp.ID,
		StartSec: s.now,
		EndSec:   s.now + sp.RunSec,
		WaitSec:  s.now - sp.SubmitSec,
		NodeSpan: alloc.NodeSpan(),
		GPUs:     gpus,
		Shares:   shares,
	}
	finishEv := event{timeSec: res.EndSec, kind: evFinish, idx: idx}
	if s.faultsOn {
		rs := &s.runState[idx]
		rs.running = true
		// Queue wait excludes wall time consumed by earlier failed attempts.
		res.WaitSec -= rs.busySec
		dur := sp.RunSec - rs.doneSec
		if rs.doneSec > 0 {
			dur += s.cfg.Requeue.Checkpoint.RestartSec
		}
		res.EndSec = s.now + dur
		finishEv.timeSec = res.EndSec
		finishEv.arg = rs.attempt
		if off, ok := faults.AttemptFatal(s.cfg.Faults, s.cfg.FaultSeed, sp.ID, rs.attempt, len(res.GPUs), dur); ok {
			s.push(event{timeSec: s.now + off, kind: evJobFatal, idx: idx, arg: rs.attempt})
		}
	}
	s.results[sp.ID] = res
	s.busyGPUs += len(res.GPUs)
	if s.pred != nil {
		s.pred.onStart(idx, sp)
	}
	if s.pipe != nil && sp.IsGPU() {
		sources := make([]monitor.Source, len(sp.Profiles))
		for i, p := range sp.Profiles {
			sources[i] = p
		}
		node := 0
		if len(alloc.Shares) > 0 {
			node = alloc.Shares[0].Node
		}
		s.monitors[sp.ID] = s.pipe.Prolog(sp.ID, node, s.cfg.Cluster.GPUSpec,
			s.cfg.PowerModel, sources, s.cfg.DetailedJobs[sp.ID])
	}
	s.push(finishEv)
}

// allocGPUs cuts an n-capacity GPU list from the slab, growing it by chunk.
func (s *Simulator) allocGPUs(n int) []gpu.DeviceID {
	if cap(s.gpuSlab)-len(s.gpuSlab) < n {
		c := 1 << 14
		if n > c {
			c = n
		}
		s.gpuSlab = make([]gpu.DeviceID, 0, c)
	}
	off := len(s.gpuSlab)
	s.gpuSlab = s.gpuSlab[:off+n]
	return s.gpuSlab[off : off : off+n]
}

// allocShares cuts an n-capacity share list from the slab, growing it by
// chunk.
func (s *Simulator) allocShares(n int) []cluster.NodeShare {
	if cap(s.shareSlab)-len(s.shareSlab) < n {
		c := 1 << 13
		if n > c {
			c = n
		}
		s.shareSlab = make([]cluster.NodeShare, 0, c)
	}
	off := len(s.shareSlab)
	s.shareSlab = s.shareSlab[:off+n]
	return s.shareSlab[off : off : off+n]
}

// finish releases a completed job and runs the epilog. Under a fault plan it
// drops stale finish events (the attempt was killed first) and completes any
// node drain the release unblocks.
func (s *Simulator) finish(e event) error {
	idx := e.idx
	sp := &s.specs[idx]
	if s.faultsOn {
		rs := &s.runState[idx]
		if !rs.running || rs.attempt != e.arg {
			return nil // stale: this attempt was killed before it finished
		}
		rs.running = false
		res := s.results[sp.ID]
		res.Requeues = rs.requeues
		res.LostSec = rs.lostSec
	}
	s.liveJobs--
	res := s.results[sp.ID]
	s.busyGPUs -= len(res.GPUs)
	if s.pred != nil {
		s.pred.onFinish(idx, sp, res, s.now, &s.stats)
	}
	if err := s.cluster.Release(sp.ID); err != nil {
		return err
	}
	// Capacity grew: cached blocked verdicts are stale from here on.
	s.epoch++
	if m, ok := s.monitors[sp.ID]; ok {
		if err := s.pipe.Epilog(m); err != nil {
			return err
		}
		delete(s.monitors, sp.ID)
	}
	if s.faultsOn {
		return s.afterRelease(res.Shares)
	}
	return nil
}

// BuildDataset assembles the joined dataset from a finished run: scheduler-
// side fields from the results, GPU-side summaries from the monitoring
// pipeline (or analytically from profiles when monitoring was off) — the
// §II join on job IDs.
func (s *Simulator) BuildDataset(specs []workload.JobSpec, results map[int64]*Result, durationDays float64) *trace.Dataset {
	ds := trace.NewDataset(durationDays)
	s.appendDataset(ds, specs, results)
	return ds
}

// appendDataset adds one run's records to an existing dataset, so the sharded
// runner can merge per-shard simulators into a single dataset in shard order.
func (s *Simulator) appendDataset(ds *trace.Dataset, specs []workload.JobSpec, results map[int64]*Result) {
	hostModel := workload.DefaultHostLoadModel()
	for i := range specs {
		sp := &specs[i]
		res := results[sp.ID]
		if res == nil {
			continue
		}
		rec := trace.JobRecord{
			JobID:       sp.ID,
			User:        sp.User,
			Interface:   sp.Interface,
			Exit:        sp.Exit,
			SubmitSec:   sp.SubmitSec,
			WaitSec:     res.WaitSec,
			RunSec:      sp.RunSec,
			LimitSec:    sp.LimitSec,
			NumGPUs:     sp.NumGPUs,
			CoresPerGPU: sp.CoresPerGPU,
			Cores:       sp.Cores,
			MemGB:       sp.MemGB,

			Requeues:       res.Requeues,
			FailureLossSec: res.LostSec,
		}
		rec.HostCPU = hostModel.HostLoadDigest(sp)
		if sp.IsGPU() {
			if s.pipe != nil {
				rec.PerGPU = s.pipe.Summaries(sp.ID)
			}
			if rec.PerGPU == nil {
				for _, p := range sp.Profiles {
					rec.PerGPU = append(rec.PerGPU, p.Summaries(s.cfg.Cluster.GPUSpec, s.cfg.PowerModel))
				}
			}
			rec.FinalizeGPUSummary()
		}
		ds.Add(rec)
		if s.pipe != nil {
			if ts := s.pipe.Series(sp.ID); ts != nil {
				ds.AttachSeries(ts)
			}
		}
	}
}
