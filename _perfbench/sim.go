package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/slurm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// simShape is one simulation workload: a closed loop of replications
// through engine.Run with `workers` workers, each replication a full
// generate → schedule → monitor/join → characterize pipeline.
type simShape struct {
	name     string
	gen      workload.Config
	sim      slurm.Config
	compress float64 // SubmitSec multiplier applied to generated arrivals
	// repsPerSec is the nominal replication rate on a 2-core host. The run
	// does a fixed number of replications, seconds*repsPerSec, so the same
	// work is measured on every commit.
	repsPerSec float64
}

var (
	// simPaper is the default user path: simcloud's defaults on the paper
	// population. Monitoring and generation do most of the work; the queue
	// stays at 1-2 jobs.
	simPaper = &simShape{name: "sim-paper", gen: genConfig(), sim: paperSim(), compress: 1, repsPerSec: 0.8}
	// simContended compresses arrivals 4x onto half the nodes with
	// monitoring off, so schedule() passes and allocation do the work.
	simContended = &simShape{name: "sim-contended", gen: genConfig(), sim: contendedSim(), compress: 0.25, repsPerSec: 1.4}
	// serverGen is the population behind the server workloads' request
	// bodies (see generateServerInputs); their traced runs trace it.
	serverGen = &simShape{name: "server-inputs", gen: genConfig(), sim: withoutMonitor(paperSim()), compress: 1}
)

func withoutMonitor(s slurm.Config) slurm.Config {
	s.Monitor = nil
	return s
}

// reps is the fixed replication count for a run of the given length.
func (sh *simShape) reps(seconds float64) int {
	n := int(math.Round(seconds*sh.repsPerSec/workers)) * workers
	return max(n, 2*workers)
}

// repOut is what one replication leaves behind.
type repOut struct {
	ds *trace.Dataset
	sm engine.Sample
	st slurm.Stats
}

// replicate is engine.Experiment's pipeline for a fault-free, unsharded
// configuration, called layer by layer so each call gets its own span, plus
// the shape's arrival compression. With tr == nil nothing is recorded.
func (sh *simShape) replicate(ctx context.Context, tr *tracer, seed uint64) (repOut, error) {
	root := tr.begin("engine.replication", 0)
	defer tr.end(root)

	id := tr.begin("workload.generate", root)
	specs, err := sh.generate(seed)
	tr.end(id)
	if err != nil {
		return repOut{}, err
	}
	scfg := sh.sim
	if scfg.Monitor != nil {
		scfg.MonitorSeed = seed
	}
	id = tr.begin("slurm.feasible", root)
	specs, rejected := slurm.Feasible(scfg, specs)
	tr.end(id)

	id = tr.begin("slurm.run", root)
	sim, err := slurm.NewSimulator(scfg)
	var (
		results map[int64]*slurm.Result
		st      slurm.Stats
	)
	if err == nil {
		results, st, err = sim.RunContext(ctx, specs)
	}
	tr.end(id)
	if err != nil {
		return repOut{}, err
	}

	id = tr.begin("slurm.build_dataset", root)
	ds := sim.BuildDataset(specs, results, sh.gen.DurationDays)
	tr.end(id)

	id = tr.begin("core.engine_characterize", root)
	sm := engine.Characterize(ds, st)
	tr.end(id)
	sm["jobs_rejected"] = float64(len(rejected))
	return repOut{ds: ds, sm: sm, st: st}, nil
}

// simRun is one closed loop of replications.
type simRun struct {
	wall  float64   // seconds for the whole engine.Run
	lat   []float64 // seconds per replication (the traced variant in a traced run)
	stats []slurm.Stats
	keep  []*trace.Dataset // datasets of the first len(keep) replications
	jobs  float64          // simulated jobs completed
	batch *engine.Batch

	// Traced runs only: each replication also ran untraced, just before.
	latU []float64 // seconds of the untraced variant
	same []bool    // whether both variants produced the same sample
}

// untracedReplicator is the user path: engine.Experiment's own replicator
// for paper arrivals, the benchmark's chain with tracing off otherwise
// (engine.Experiment cannot compress arrivals).
func (sh *simShape) untracedReplicator() engine.Replicator {
	if sh.compress == 1 {
		return engine.Experiment{Gen: sh.gen, Sim: sh.sim}.Replicator()
	}
	return func(ctx context.Context, rep int, s uint64) (engine.Sample, error) {
		out, err := sh.replicate(ctx, nil, s)
		return out.sm, err
	}
}

// runReps runs reps replications from root seed through engine.Run. With a
// tracer, every replication runs untraced and then traced, back to back on
// the same worker: paired latencies cancel machine drift out of the tracing
// overhead, and the two samples must be identical.
func (sh *simShape) runReps(ctx context.Context, seed uint64, reps int, tr *tracer, keep int) (*simRun, error) {
	r := &simRun{lat: make([]float64, reps), stats: make([]slurm.Stats, reps), keep: make([]*trace.Dataset, keep)}
	untraced := sh.untracedReplicator()
	fn := func(ctx context.Context, rep int, s uint64) (engine.Sample, error) {
		t := time.Now()
		sm, err := untraced(ctx, rep, s)
		r.lat[rep] = time.Since(t).Seconds()
		return sm, err
	}
	if tr != nil {
		r.latU, r.same = make([]float64, reps), make([]bool, reps)
		fn = func(ctx context.Context, rep int, s uint64) (engine.Sample, error) {
			t := time.Now()
			smU, err := untraced(ctx, rep, s)
			r.latU[rep] = time.Since(t).Seconds()
			if err != nil {
				return nil, err
			}
			t = time.Now()
			out, err := sh.replicate(ctx, tr, s)
			r.lat[rep] = time.Since(t).Seconds()
			if err != nil {
				return nil, err
			}
			r.stats[rep] = out.st
			if rep < keep {
				r.keep[rep] = out.ds
			}
			r.same[rep] = sampleFingerprint(smU) == sampleFingerprint(out.sm)
			return out.sm, nil
		}
	}
	t0 := time.Now()
	b, err := engine.Run(ctx, engine.Config{RootSeed: seed, Reps: reps, Workers: workers}, fn)
	r.wall = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	r.batch = b
	for i := range b.Results {
		if sm := b.Results[i].Sample; sm != nil {
			r.jobs += sm["jobs_completed"]
		}
	}
	return r, nil
}

// sampleFingerprint fingerprints one replication's sample.
func sampleFingerprint(sm engine.Sample) string {
	s := engine.NewSummary()
	s.AddSample(0, sm)
	return s.Fingerprint()
}

// checkPaired reports whether every replication's traced and untraced
// samples agreed, and returns the tracing overhead (median paired latency
// ratio minus one) and the worker time the traced variants had: workers ×
// wall minus the untraced variants' time.
func (r *simRun) checkPaired() (ok bool, overhead, tracedTime float64) {
	ok = true
	ratios := make([]float64, len(r.lat))
	untraced := 0.0
	for i := range r.lat {
		if !r.same[i] {
			fmt.Printf("FAIL replication %d: traced sample differs from untraced\n", i)
			ok = false
		}
		ratios[i] = r.lat[i] / r.latU[i]
		untraced += r.latU[i]
	}
	return ok, stats.Median(ratios) - 1, workers*r.wall - untraced
}

// headFingerprint fingerprints the merged summary of the first `workers`
// replications: independent of run length, so it can be recorded.
func headFingerprint(b *engine.Batch) string {
	s := engine.NewSummary()
	for i := 0; i < workers && i < len(b.Results); i++ {
		if b.Results[i].Err == nil {
			s.AddSample(i, b.Results[i].Sample)
		}
	}
	return s.Fingerprint()
}

// defaultSeed is the seed whose fingerprints are recorded in
// fingerprints.json.
const defaultSeed = 1

// checkRecorded compares a sim workload's head fingerprint with the value
// recorded for the default seed. Other seeds have no recorded value.
func checkRecorded(root, name string, seed uint64, got string) (bool, error) {
	if seed != defaultSeed {
		return true, nil
	}
	raw, err := os.ReadFile(filepath.Join(root, "_perfbench", "fingerprints.json"))
	if err != nil {
		return false, err
	}
	var rec map[string]string
	if err := json.Unmarshal(raw, &rec); err != nil {
		return false, fmt.Errorf("fingerprints.json: %w", err)
	}
	want := rec[name]
	if want != got {
		fmt.Printf("FAIL fingerprint for %s seed %d: got %s, recorded %s\n", name, seed, got, want)
		return false, nil
	}
	return true, nil
}

// setupSeconds is the sim workloads' set-up time: generator construction,
// the median of several.
func (sh *simShape) setupSeconds(seed uint64) (float64, error) {
	const n = 31
	ts := make([]float64, n)
	for i := range ts {
		gcfg := sh.gen
		gcfg.Seed = dist.StreamSeed(seed, uint64(i))
		t := time.Now()
		if _, err := workload.NewGenerator(gcfg); err != nil {
			return 0, err
		}
		ts[i] = time.Since(t).Seconds()
	}
	return stats.Median(ts), nil
}

// describe prints the workload's shape and the hash of its first
// replication's generated specs.
func (sh *simShape) describe(seed uint64, reps int) error {
	h, err := sh.specsHash(dist.StreamSeed(seed, 0))
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: closed loop, %d replications of %d jobs on %d workers, %d nodes, monitor=%v, arrivals x%g\n",
		sh.name, reps, sh.gen.TotalJobs, workers, sh.sim.Cluster.Nodes, sh.sim.Monitor != nil, sh.compress)
	fmt.Printf("input hash (replication 0 specs): %s\n", h)
	return nil
}

func (sh *simShape) untraced(ctx context.Context, e *env) (*result, error) {
	setup, err := sh.setupSeconds(e.seed)
	if err != nil {
		return nil, err
	}
	reps := sh.reps(e.seconds)
	if err := sh.describe(e.seed, reps); err != nil {
		return nil, err
	}
	runtime.GC()
	r, err := sh.runReps(ctx, e.seed, reps, nil, 0)
	if err != nil {
		return nil, err
	}
	head := headFingerprint(r.batch)
	fmt.Printf("fingerprint: merged %s head %s\n", r.batch.Merged.Fingerprint(), head)
	ok, err := checkRecorded(e.root, sh.name, e.seed, head)
	if err != nil {
		return nil, err
	}
	failed := len(r.batch.Failed())
	if failed > 0 {
		fmt.Println("FAIL replication:", r.batch.FirstErr())
	}
	m := map[string]metric{
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {selfPeakRSSMB(), "MB"},
		"jobs_per_s":  {r.jobs / r.wall, "1/s"},
		"op_p50_ms":   {stats.Median(r.lat) * 1000, "ms"},
	}
	printMetrics("end-to-end metrics:", m)
	return &result{Correct: ok && failed == 0, Attempted: reps, Failed: failed, Metrics: m}, nil
}

func (sh *simShape) traced(ctx context.Context, e *env) (*result, error) {
	reps := sh.reps(e.seconds)
	if err := sh.describe(e.seed, reps); err != nil {
		return nil, err
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d", sh.name, e.seed))
	runtime.GC()
	t, err := sh.runReps(ctx, e.seed, reps, tr, workers)
	if err != nil {
		return nil, err
	}
	ok, overhead, tracedTime := t.checkPaired()
	good, err := checkRecorded(e.root, sh.name, e.seed, headFingerprint(t.batch))
	if err != nil {
		return nil, err
	}
	ok = ok && good
	if !sh.probeMonitor(ctx, tr, e.seed, t.keep) {
		ok = false
	}

	bs, err := cutBatches(t.keep[0])
	if err != nil {
		return nil, err
	}
	ip, err := ingestProbe(ctx, e, tr, probeInput{cfg: serverSegConfig(sh.gen.DurationDays), batches: bs, snapJobs: ingestWL.snapJobs})
	if err != nil {
		return nil, err
	}
	if err := tr.write(traceFile(e)); err != nil {
		return nil, err
	}

	lt := summarize(tr.snapshot())
	m := map[string]metric{}
	simLayerMetrics(m, lt, t)
	ip.metrics(m, lt)
	unattr, recOK := lt.reconcile("simulation", simLayers, tracedTime, reconcileTol)
	_, ingestOK := ip.reconcile(lt)
	m["bench.trace_overhead_frac"] = metric{overhead, "ratio"}
	m["bench.unattributed_frac"] = metric{unattr, "ratio"}
	fmt.Printf("tracing overhead: median paired replication latency traced/untraced %+.1f%%\n", 100*overhead)
	printMetrics("per-layer metrics:", m)
	failed := len(t.batch.Failed()) + ip.failed
	return &result{Correct: ok && recOK && ingestOK && ip.ok && failed == 0, Attempted: reps + ip.attempted, Failed: failed, Metrics: m}, nil
}

// simLayers are the layers whose self times must add up to the simulation
// path's end-to-end time: the worker time of the traced variants.
var simLayers = []string{"workload.generate", "slurm.feasible", "slurm.run", "slurm.build_dataset", "core.engine_characterize"}

// reconcileTol is the share of end-to-end time the traced layers may leave
// unexplained.
const reconcileTol = 0.25

// simLayerMetrics fills the simulation layers' per-layer metrics from a
// traced loop.
func simLayerMetrics(m map[string]metric, lt layerTimes, t *simRun) {
	var passes, attempts, hits, events int64
	maxQueue := 0
	for _, st := range t.stats {
		passes += st.SchedulePasses
		attempts += st.AllocAttempts
		hits += st.AllocCacheHits
		events += st.EventsProcessed
		maxQueue = max(maxQueue, st.MaxQueueLen)
	}
	hitRatio := 0.0
	if attempts > 0 {
		hitRatio = float64(hits) / float64(attempts)
	}
	m["workload.generate_s"] = metric{lt.median("workload.generate", 1), "s"}
	m["slurm.feasible_ms"] = metric{lt.median("slurm.feasible", 1000), "ms"}
	m["slurm.run_s"] = metric{lt.median("slurm.run", 1), "s"}
	m["slurm.build_dataset_ms"] = metric{lt.median("slurm.build_dataset", 1000), "ms"}
	m["core.engine_characterize_ms"] = metric{lt.median("core.engine_characterize", 1000), "ms"}
	m["monitor.sample_s"] = metric{lt.median("monitor.sample", 1), "s"}
	m["slurm.schedule_passes"] = metric{float64(passes), "count"}
	m["slurm.alloc_attempts"] = metric{float64(attempts), "count"}
	m["slurm.events_processed"] = metric{float64(events), "count"}
	m["slurm.max_queue_len"] = metric{float64(maxQueue), "count"}
	m["slurm.alloc_cache_hit_ratio"] = metric{hitRatio, "ratio"}
	busy := 0.0
	for i := range t.lat {
		busy += t.lat[i] + t.latU[i]
	}
	m["engine.worker_busy_frac"] = metric{busy / (workers * t.wall), "ratio"}
}

// probeMonitor times the monitoring layer from outside: for the first
// replications it drives a monitor.Pipeline's Prolog/Epilog over every GPU
// job with the replication's seed, as the simulator's hooks do. When the
// shape monitors, the digests must equal the dataset's, and the simulation
// is rerun with monitoring off so slurm.run_s can be compared on and off.
func (sh *simShape) probeMonitor(ctx context.Context, tr *tracer, seed uint64, keep []*trace.Dataset) bool {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		good = true
		on   []float64
		off  []float64
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		good = false
		mu.Unlock()
		fmt.Printf("FAIL monitor probe: "+format+"\n", args...)
	}
	for rep := range keep {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			s := dist.StreamSeed(seed, uint64(rep))
			root := tr.begin("probe.replication", 0)
			defer tr.end(root)
			specs, err := sh.generate(s)
			if err != nil {
				fail("%v", err)
				return
			}
			scfg := sh.sim
			specs, _ = slurm.Feasible(scfg, specs)
			mcfg := paperMonitor()
			if scfg.Monitor != nil {
				mcfg = *scfg.Monitor
			}

			id := tr.begin("monitor.sample", root)
			pipe, err := monitor.NewPipeline(mcfg, s)
			if err != nil {
				tr.end(id)
				fail("%v", err)
				return
			}
			for i := range specs {
				sp := &specs[i]
				if !sp.IsGPU() {
					continue
				}
				sources := make([]monitor.Source, len(sp.Profiles))
				for k, p := range sp.Profiles {
					sources[k] = p
				}
				if err := pipe.Epilog(pipe.Prolog(sp.ID, 0, scfg.Cluster.GPUSpec, scfg.PowerModel, sources, false)); err != nil {
					fail("%v", err)
				}
			}
			tr.end(id)
			if scfg.Monitor == nil {
				return
			}
			for _, rec := range keep[rep].Jobs {
				if rec.IsGPU() && !reflect.DeepEqual(rec.PerGPU, pipe.Summaries(rec.JobID)) {
					fail("replication %d job %d: probe digest differs from the simulated one", rep, rec.JobID)
					return
				}
			}
			scfg.Monitor = nil
			id = tr.begin("slurm.run_nomon", root)
			t0 := time.Now()
			sim, err := slurm.NewSimulator(scfg)
			if err == nil {
				_, _, err = sim.RunContext(ctx, specs)
			}
			tr.end(id)
			if err != nil {
				fail("%v", err)
				return
			}
			mu.Lock()
			off = append(off, time.Since(t0).Seconds())
			mu.Unlock()
		}(rep)
	}
	wg.Wait()
	lt := summarize(tr.snapshot())
	on = lt.durs["slurm.run"]
	if len(off) > 0 {
		fmt.Printf("monitor cross-check: slurm.run_s monitoring on %.3f s, off %.3f s, difference %.3f s; monitor.sample_s %.3f s\n",
			stats.Median(on), stats.Median(off), stats.Median(on)-stats.Median(off), lt.median("monitor.sample", 1))
	}
	return good
}

// traceFile is where a traced run writes its spans.
func traceFile(e *env) string {
	return filepath.Join(e.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
}
