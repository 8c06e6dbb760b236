package repro

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/slurm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestEndToEndAnalyticPath runs the full analytic pipeline — generate,
// persist, reload, characterize, render — and verifies the two dataset
// representations agree on every figure input.
func TestEndToEndAnalyticPath(t *testing.T) {
	cfg := workload.ScaledConfig(0.02)
	cfg.Seed = 17
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.BuildDataset(g.GenerateSpecs())

	// Persist as JSON, reload, and compare the reports.
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	repA := core.Characterize(ds.Columns(), 0)
	repB := core.Characterize(back.Columns(), 0)
	if repA.Runtimes.GPU.P50 != repB.Runtimes.GPU.P50 {
		t.Fatalf("runtime medians diverge after JSON round trip: %v vs %v",
			repA.Runtimes.GPU.P50, repB.Runtimes.GPU.P50)
	}
	if repA.Utilization.SM.P50 != repB.Utilization.SM.P50 {
		t.Fatal("utilization medians diverge after JSON round trip")
	}
	if repA.Phases.JobsAnalyzed != repB.Phases.JobsAnalyzed {
		t.Fatal("phase subsets diverge after JSON round trip")
	}

	// CSV path drops series and per-GPU detail but preserves the job table.
	buf.Reset()
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csvBack, err := trace.ReadCSV(&buf, cfg.DurationDays)
	if err != nil {
		t.Fatal(err)
	}
	if len(csvBack.Jobs) != len(ds.Jobs) {
		t.Fatalf("CSV lost jobs: %d vs %d", len(csvBack.Jobs), len(ds.Jobs))
	}
	repC := core.Characterize(csvBack.Columns(), 0)
	if math.Abs(repC.Runtimes.GPU.P50-repA.Runtimes.GPU.P50) > 1e-9 {
		t.Fatal("CSV round trip changed runtimes")
	}

	// Rendering must handle the full report without error.
	var out bytes.Buffer
	if err := report.RenderReport(&out, repA); err != nil {
		t.Fatal(err)
	}
	if out.Len() < 2000 {
		t.Fatalf("rendered report suspiciously short: %d bytes", out.Len())
	}

	// CSV figure export round-trips through the filesystem.
	dir := filepath.Join(t.TempDir(), "figs")
	if err := report.ExportCSVDir(dir, repA); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no figures exported")
	}
}

// TestEndToEndSimulationPath runs the same specs through the discrete-event
// scheduler with monitoring and fault injection, and checks that the joined
// dataset matches the analytic one on the utilization marginals (the two
// paths must tell the same story).
func TestEndToEndSimulationPath(t *testing.T) {
	gcfg := workload.ScaledConfig(0.01)
	gcfg.Seed = 23
	g, err := workload.NewGenerator(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := g.GenerateSpecs()
	analytic := g.BuildDataset(specs)

	scfg := slurm.DefaultConfig()
	scfg.Cluster.Nodes = 24
	mc := monitor.DefaultConfig()
	mc.GPUIntervalSec = 60
	scfg.Monitor = &mc
	scfg.MonitorSeed = 23
	sim, err := slurm.NewSimulator(scfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := sim.EnableTelemetry(0)
	results, st, err := sim.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != len(specs) {
		t.Fatalf("completed %d of %d", st.Completed, len(specs))
	}
	simDS := sim.BuildDataset(specs, results, gcfg.DurationDays)
	if err := simDS.Validate(); err != nil {
		t.Fatal(err)
	}

	// The two paths must agree on the utilization story (sampling error and
	// queueing differences allowed).
	a := core.Utilization(analytic.Columns())
	s := core.Utilization(simDS.Columns())
	if math.Abs(a.SM.P50-s.SM.P50) > 3 {
		t.Fatalf("paths disagree on SM median: analytic %v vs simulated %v", a.SM.P50, s.SM.P50)
	}
	if math.Abs(a.MemSize.P50-s.MemSize.P50) > 3 {
		t.Fatalf("paths disagree on memsize median: %v vs %v", a.MemSize.P50, s.MemSize.P50)
	}

	// Scheduler telemetry covered the run.
	if len(tel.Points) == 0 || tel.PeakQueueLen() < 0 {
		t.Fatal("telemetry empty")
	}

	// Lifecycle classification identical across paths (it only reads
	// scheduler-side fields).
	la := core.Lifecycle(analytic.Columns())
	ls := core.Lifecycle(simDS.Columns())
	for c := trace.Category(0); c < trace.NumCategories; c++ {
		if math.Abs(la.JobShare[c]-ls.JobShare[c]) > 1e-9 {
			t.Fatalf("category %v share differs across paths", c)
		}
	}
}

// TestEndToEndFaultyMonitoring injects monitor faults on a slice of nodes
// and verifies the pipeline degrades gracefully: stalled jobs yield zero
// digests, drops are counted, and the dataset still validates.
func TestEndToEndFaultyMonitoring(t *testing.T) {
	gcfg := workload.ScaledConfig(0.005)
	gcfg.Seed = 31
	g, err := workload.NewGenerator(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := g.GenerateSpecs()

	mc := monitor.DefaultConfig()
	mc.GPUIntervalSec = 120
	pipe, err := monitor.NewPipeline(mc, 31)
	if err != nil {
		t.Fatal(err)
	}
	pipe.InjectFaults(monitor.FaultPlan{
		0: {DropRate: 0.5},
		1: {StallProb: 1},
	})
	stalledSeen := false
	for i := range specs {
		sp := &specs[i]
		if !sp.IsGPU() {
			continue
		}
		sources := make([]monitor.Source, len(sp.Profiles))
		for k, p := range sp.Profiles {
			sources[k] = p
		}
		node := int(sp.ID) % 4
		m := pipe.Prolog(sp.ID, node, gcfg.GPUSpec, gcfg.PowerModel, sources, false)
		if err := pipe.Epilog(m); err != nil {
			t.Fatal(err)
		}
		if node == 1 {
			sums := pipe.Summaries(sp.ID)
			if sums[0][metrics.SMUtil].Max != 0 {
				t.Fatalf("stalled node produced data for job %d", sp.ID)
			}
			stalledSeen = true
		}
	}
	if !stalledSeen {
		t.Fatal("no job landed on the stalled node")
	}
	if pipe.DroppedSamples() == 0 {
		t.Fatal("dropping node lost no samples")
	}
	if pipe.StalledJobs() == 0 {
		t.Fatal("stalled jobs not counted")
	}
}
