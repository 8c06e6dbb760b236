package slurm

// The differential equivalence harness: every simulation is run twice, once
// on the calendar queue (production) and once on the container/heap spec in
// naive.go, over a matrix of seeds × workload scales × fault plans, and the
// two runs must agree byte for byte — identical Stats (including the event
// count), identical per-job results down to GPU device lists, and identical
// serialized datasets. Because event sequence numbers make the event order
// total, ANY divergence means one of the queues violated the ordering
// contract; this harness is what makes the calendar queue's speedup
// trustworthy.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/workload"
)

// diffCase is one cell of the equivalence matrix.
type diffCase struct {
	name  string
	seed  uint64
	scale float64
	nodes int
	plan  faults.Plan
	// predict, when enabled, runs the cell under prediction-aware backfill;
	// ageSec then overrides ReservationAgeSec so reservations actually arm
	// inside the short synthetic horizon. Zero values keep legacy cells
	// byte-identical.
	predict PredictPolicy
	ageSec  float64
}

func diffMatrix() []diffCase {
	crashPlan := faults.Plan{
		NodeCrashMTBFHours: 200,
		NodeDrainMTBFHours: 400,
		GPUFatalMTBFHours:  800,
		MeanRepairHours:    2,
	}
	var cases []diffCase
	for _, seed := range []uint64{1, 7, 42} {
		for _, sc := range []struct {
			name  string
			scale float64
			nodes int
		}{
			{"tiny", 0.005, 4},
			{"small", 0.02, 8},
		} {
			base := fmt.Sprintf("seed%d/%s", seed, sc.name)
			cases = append(cases,
				diffCase{name: base + "/fault-free", seed: seed, scale: sc.scale, nodes: sc.nodes},
				diffCase{name: base + "/faults", seed: seed, scale: sc.scale, nodes: sc.nodes, plan: crashPlan},
			)
		}
	}
	// Prediction-aware cells: the predictor's estimate/shadow/refinement
	// state must be a pure function of the event order on BOTH queue
	// implementations. One cell per policy mode — forecasts with prefix
	// refinement, the requested-limit baseline, an adversarial
	// under-estimator with stale priors (the mispredict-fallback path), and
	// forecasts under a fault plan (the kill/requeue bookkeeping).
	refine := PredictPolicy{Enabled: true, PrefixSamples: 8, PrefixIntervalSec: 60}
	cases = append(cases,
		diffCase{name: "seed7/small/predict", seed: 7, scale: 0.02, nodes: 8,
			predict: refine, ageSec: 1800},
		diffCase{name: "seed7/small/predict-limit", seed: 7, scale: 0.02, nodes: 8,
			predict: PredictPolicy{Enabled: true, UseRequestedLimit: true}, ageSec: 1800},
		diffCase{name: "seed42/small/predict-mispredict", seed: 42, scale: 0.02, nodes: 8,
			predict: PredictPolicy{Enabled: true, PrefixSamples: 8, PrefixIntervalSec: 60,
				ObsScale: 0.25, FreezeAfterObs: 100}, ageSec: 900},
		diffCase{name: "seed1/tiny/predict-faults", seed: 1, scale: 0.005, nodes: 4,
			plan: crashPlan, predict: refine, ageSec: 900},
	)
	return cases
}

// diffPopulation synthesizes the case's workload.
func diffPopulation(t *testing.T, c diffCase) []workload.JobSpec {
	t.Helper()
	gcfg := workload.ScaledConfig(c.scale)
	gcfg.Seed = c.seed
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen.GenerateSpecs()
}

// runQueue executes one full run on the given queue implementation and
// returns everything the comparison needs, including the serialized dataset.
func runQueue(t *testing.T, cfg Config, specs []workload.JobSpec) (map[int64]*Result, Stats, []byte) {
	t.Helper()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := sim.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	ds := sim.BuildDataset(specs, res, 125)
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res, st, buf.Bytes()
}

// assertResultsEqual deep-compares two result maps.
func assertResultsEqual(t *testing.T, spec, cal map[int64]*Result) {
	t.Helper()
	if len(spec) != len(cal) {
		t.Fatalf("result count: heap spec %d, calendar %d", len(spec), len(cal))
	}
	for id, rs := range spec {
		rc := cal[id]
		if rc == nil {
			t.Fatalf("job %d present on heap spec, missing on calendar queue", id)
		}
		if rs.JobID != rc.JobID || rs.StartSec != rc.StartSec || rs.EndSec != rc.EndSec ||
			rs.WaitSec != rc.WaitSec || rs.NodeSpan != rc.NodeSpan ||
			rs.Requeues != rc.Requeues || rs.LostSec != rc.LostSec {
			t.Fatalf("job %d diverged:\n heap spec %+v\n calendar  %+v", id, rs, rc)
		}
		if len(rs.GPUs) != len(rc.GPUs) {
			t.Fatalf("job %d GPU count: %d vs %d", id, len(rs.GPUs), len(rc.GPUs))
		}
		for i := range rs.GPUs {
			if rs.GPUs[i] != rc.GPUs[i] {
				t.Fatalf("job %d GPU[%d]: %v vs %v", id, i, rs.GPUs[i], rc.GPUs[i])
			}
		}
		if len(rs.Shares) != len(rc.Shares) {
			t.Fatalf("job %d share count: %d vs %d", id, len(rs.Shares), len(rc.Shares))
		}
		for i := range rs.Shares {
			a, b := rs.Shares[i], rc.Shares[i]
			if a.Node != b.Node || a.Cores != b.Cores || a.MemGB != b.MemGB || len(a.GPUIDs) != len(b.GPUIDs) {
				t.Fatalf("job %d share[%d]: %+v vs %+v", id, i, a, b)
			}
			for j := range a.GPUIDs {
				if a.GPUIDs[j] != b.GPUIDs[j] {
					t.Fatalf("job %d share[%d] GPU[%d]: %v vs %v", id, i, j, a.GPUIDs[j], b.GPUIDs[j])
				}
			}
		}
	}
}

// TestDifferentialHeapVsCalendar is the equivalence matrix: for every cell,
// the heap-spec run and the calendar-queue run must produce identical stats
// (event counts included), identical per-job results, and byte-identical
// dataset serializations.
func TestDifferentialHeapVsCalendar(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is the long equivalence proof")
	}
	for _, c := range diffMatrix() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cluster.Nodes = c.nodes
			cfg.Faults = c.plan
			cfg.FaultSeed = c.seed
			cfg.Policy.Predict = c.predict
			if c.ageSec > 0 {
				cfg.Policy.ReservationAgeSec = c.ageSec
			}
			specs := diffPopulation(t, c)
			specs, _ = Feasible(cfg, specs)

			specCfg := cfg
			specCfg.specEventQueue = true
			specRes, specSt, specJSON := runQueue(t, specCfg, specs)
			calRes, calSt, calJSON := runQueue(t, cfg, specs)

			if specSt != calSt {
				t.Errorf("stats diverged:\n heap spec %+v\n calendar  %+v", specSt, calSt)
			}
			if specSt.EventsProcessed == 0 {
				t.Error("heap spec processed zero events; matrix cell is vacuous")
			}
			assertResultsEqual(t, specRes, calRes)
			if !bytes.Equal(specJSON, calJSON) {
				t.Errorf("dataset serialization diverged (%d vs %d bytes)", len(specJSON), len(calJSON))
			}
		})
	}
}

// TestAuditEventsRunsClean runs the lockstep audit queue — calendar shadowed
// by the heap spec, every dequeue cross-checked — over a faulted workload.
// A divergence panics inside eventAudit.Pop.
func TestAuditEventsRunsClean(t *testing.T) {
	c := diffCase{seed: 11, scale: 0.01, nodes: 6, plan: faults.Plan{
		NodeCrashMTBFHours: 150, GPUFatalMTBFHours: 500, MeanRepairHours: 1,
	}}
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = c.nodes
	cfg.Faults = c.plan
	cfg.FaultSeed = c.seed
	cfg.auditEvents = true
	specs := diffPopulation(t, c)
	specs, _ = Feasible(cfg, specs)
	if _, st, err := Simulate(cfg, specs); err != nil {
		t.Fatal(err)
	} else if st.EventsProcessed == 0 {
		t.Fatal("audit run processed zero events")
	}
}

// TestOutageAtFinishInstantOrdersIdentically is the setupFaults-era ordering
// regression: a node outage scheduled at exactly the same timestamp as a job
// finish must process in the same relative order (finish first — capacity
// returns before capacity leaves) on both queue implementations, whatever
// order the events were pushed in.
func TestOutageAtFinishInstantOrdersIdentically(t *testing.T) {
	const instant = 4096.0
	mk := func(pushFaultFirst bool) []event {
		finish := event{timeSec: instant, kind: evFinish, idx: 1, seq: 2}
		fault := event{timeSec: instant, kind: evNodeFault, idx: 0, seq: 1}
		if pushFaultFirst {
			return []event{fault, finish}
		}
		return []event{finish, fault}
	}
	for _, pushFaultFirst := range []bool{false, true} {
		for _, q := range []eventQueue{
			newCalQueue(nil),
			naiveNewEventQueue(nil),
		} {
			for _, e := range mk(pushFaultFirst) {
				q.Push(e)
			}
			first, ok := q.Pop()
			if !ok || first.kind != evFinish {
				t.Fatalf("%T (faultFirst=%v): first pop = %+v, want the finish event",
					q, pushFaultFirst, first)
			}
			second, ok := q.Pop()
			if !ok || second.kind != evNodeFault {
				t.Fatalf("%T (faultFirst=%v): second pop = %+v, want the outage event",
					q, pushFaultFirst, second)
			}
		}
	}
	// And end to end: a faulted run on both queues agrees event for event —
	// the lockstep audit panics if any same-instant pair ever swaps.
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 4
	cfg.Faults = faults.Plan{NodeCrashMTBFHours: 100, MeanRepairHours: 1}
	cfg.FaultSeed = 3
	cfg.auditEvents = true
	specs := diffPopulation(t, diffCase{seed: 3, scale: 0.005})
	specs, _ = Feasible(cfg, specs)
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.RunContext(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
}
