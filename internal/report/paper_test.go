package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// renderedReport builds one small report shared by the rendering tests.
var renderedCache struct {
	ds  *trace.Dataset
	rep *core.Report
}

func testReportData(t *testing.T) (*trace.Dataset, *core.Report) {
	t.Helper()
	if renderedCache.rep == nil {
		cfg := workload.ScaledConfig(0.02)
		cfg.Seed = 5
		g, err := workload.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		renderedCache.ds = g.BuildDataset(g.GenerateSpecs())
		renderedCache.rep = core.Characterize(renderedCache.ds.Columns(), 0)
	}
	return renderedCache.ds, renderedCache.rep
}

func TestRenderTableI(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTableI(&buf, cluster.SupercloudConfig()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table I", "224", "448", "V100", "Omnipath"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table I missing %q", want)
		}
	}
}

func TestRenderReportCoversEveryFigure(t *testing.T) {
	_, rep := testReportData(t)
	var buf bytes.Buffer
	if err := RenderReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Fig 3a", "Fig 3:", "Sec V: median queue wait",
		"Fig 4a", "Fig 4b", "Fig 5", "Fig 6", "Fig 7a", "Fig 7b/8a", "Fig 8b",
		"Fig 9a", "Fig 10/11", "Fig 12", "Fig 13", "Fig 14",
		"Fig 15", "Fig 16", "Fig 17", "Sec IV/V: user population",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing section %q", want)
		}
	}
	if len(out) < 4000 {
		t.Fatalf("report suspiciously short: %d bytes", len(out))
	}
}

func TestRenderPaperComparison(t *testing.T) {
	_, rep := testReportData(t)
	var buf bytes.Buffer
	if err := RenderPaperComparison(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "paper vs measured") {
		t.Fatal("comparison header missing")
	}
	if !strings.Contains(out, "targets within shape bands") {
		t.Fatal("summary line missing")
	}
	// Every figure group appears.
	for _, fig := range []string{"Fig3a", "Fig9a", "Fig15a", "SecIV"} {
		if !strings.Contains(out, fig) {
			t.Errorf("comparison missing %s rows", fig)
		}
	}
}

func TestRenderArrivals(t *testing.T) {
	ds, _ := testReportData(t)
	var buf bytes.Buffer
	if err := RenderArrivals(&buf, core.Arrivals(ds, 0)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "submission process") || !strings.Contains(out, "weekday mean") {
		t.Fatalf("arrivals render malformed:\n%s", out)
	}
}
