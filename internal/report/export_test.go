package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestExportCSVDir(t *testing.T) {
	cfg := workload.ScaledConfig(0.01)
	cfg.Seed = 3
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.BuildDataset(g.GenerateSpecs())
	rep := core.Characterize(ds.Columns(), 0)

	dir := t.TempDir()
	if err := ExportCSVDir(dir, rep); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 17 {
		t.Fatalf("exported %d files, want 17", len(entries))
	}
	// Every file has a header plus at least one data row.
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s has %d lines", e.Name(), len(lines))
		}
		if !strings.Contains(lines[0], ",") {
			t.Fatalf("%s header malformed: %q", e.Name(), lines[0])
		}
	}
	// Spot-check one curve file for long form.
	data, err := os.ReadFile(filepath.Join(dir, "fig03a_runtimes.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,x,cdf") {
		t.Fatalf("curve header: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
	if !strings.Contains(string(data), "gpu_run_min") || !strings.Contains(string(data), "cpu_run_min") {
		t.Fatal("runtime series missing")
	}
}

func TestExportCSVDirBadPath(t *testing.T) {
	if err := ExportCSVDir("/proc/definitely/not/writable", &core.Report{}); err == nil {
		t.Fatal("unwritable dir accepted")
	}
}
