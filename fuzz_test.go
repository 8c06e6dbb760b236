package repro

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/slurm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzPipeline feeds arbitrary bytes through the whole replay path of
// `simcloud -in`: decode, replay, the feasibility gate and simulation on a
// four-node cluster, characterization and rendering. JobRecord.Validate is
// the one boundary: a decode error is the only way to refuse input, and
// every dataset it accepts must come out as a rendered report.
func FuzzPipeline(f *testing.F) {
	// FuzzReadJSON's corpus: one GPU job, an empty object, null.
	f.Add([]byte(`{"duration_days":1,"jobs":[{"JobID":1,"Interface":3,"SubmitSec":100,"WaitSec":5,` +
		`"RunSec":600,"LimitSec":43200,"NumGPUs":1,"CoresPerGPU":4,"MemGB":64,` +
		`"PerGPU":[[{"Min":0,"Mean":20,"Max":90},{},{},{},{},{"Min":25,"Mean":45,"Max":90}]],` +
		`"GPU":[{"Min":0,"Mean":20,"Max":90},{},{},{},{},{"Min":25,"Mean":45,"Max":90}]}]}`))
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	// A GPU job that ran for 0 s.
	f.Add([]byte(`{"duration_days":1,"jobs":[{"JobID":3,"NumGPUs":2,"RunSec":0,"GPU":[{"Max":100}]}]}`))
	// The dataset `tracegen -scale 0.005 -json` writes.
	cfg := workload.ScaledConfig(0.005)
	cfg.Seed = 1
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var gen bytes.Buffer
	if err := g.BuildDataset(g.GenerateSpecs()).WriteJSON(&gen); err != nil {
		f.Fatal(err)
	}
	f.Add(gen.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := trace.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		scfg := slurm.DefaultConfig()
		scfg.Cluster.Nodes = 4
		specs, _ := slurm.Feasible(scfg, workload.ReplaySpecs(ds))
		workload.ReplayProfiles(ds, specs, 1)
		sim, err := slurm.NewSimulator(scfg)
		if err != nil {
			t.Fatal(err)
		}
		results, _, err := sim.Run(specs)
		if err != nil {
			t.Fatalf("simulating a decoded dataset: %v", err)
		}
		out := sim.BuildDataset(specs, results, ds.DurationDays)
		if err := report.RenderReport(io.Discard, core.Characterize(out.Columns(), 1)); err != nil {
			t.Fatalf("rendering a decoded dataset: %v", err)
		}
	})
}
