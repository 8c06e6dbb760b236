package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestFiguresReadNoRows renders every figure from a segmented snapshot
// twice: as taken, and with its GPU, Multi and CPU record slices set to
// nil. The two reports must be byte-identical, so no figure reads a job
// record or counts one by slice length — the property a store that keeps
// no records in memory needs.
func TestFiguresReadNoRows(t *testing.T) {
	cfg := workload.ScaledConfig(0.05)
	cfg.Seed = 5
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.BuildDataset(g.GenerateSpecs())
	st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 500})
	st.AppendDataset(ds)
	v := st.Snapshot()
	if v.Segments == 0 || v.TailJobs == 0 || len(v.Cols.GPU) == 0 || len(v.Cols.Multi) == 0 || len(v.Cols.CPU) == 0 {
		t.Fatalf("fixture lacks segments, tail or a population: %d segments, %d tail, %d/%d/%d rows",
			v.Segments, v.TailJobs, len(v.Cols.GPU), len(v.Cols.Multi), len(v.Cols.CPU))
	}
	render := func(c *trace.Columns) []byte {
		var buf bytes.Buffer
		if err := report.RenderReport(&buf, core.Characterize(c, 2)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render(v.Cols)
	rowFree := *v.Cols
	rowFree.GPU, rowFree.Multi, rowFree.CPU = nil, nil, nil
	if got := render(&rowFree); !bytes.Equal(got, want) {
		t.Fatalf("figures differ without rows: %d vs %d bytes", len(got), len(want))
	}
}
