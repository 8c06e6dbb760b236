package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// equivDataset generates the shared mid-size dataset for equivalence runs.
func equivDataset(t *testing.T) *trace.Dataset {
	t.Helper()
	cfg := workload.ScaledConfig(0.12)
	cfg.Seed = 11
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.BuildDataset(g.GenerateSpecs())
}

// diffReports compares two reports field by field through fmt's %v rendering:
// maps print in sorted key order and NaN renders stably, so equal strings
// mean value-identical results (and unequal strings name the figure).
func diffReports(t *testing.T, label string, want, got *Report) {
	t.Helper()
	wv, gv := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < wv.NumField(); i++ {
		name := wv.Type().Field(i).Name
		ws := fmt.Sprintf("%v", wv.Field(i).Interface())
		gs := fmt.Sprintf("%v", gv.Field(i).Interface())
		if ws != gs {
			t.Errorf("%s: field %s differs\n want %.400s\n  got %.400s", label, name, ws, gs)
		}
	}
}

// TestColumnarMatchesNaive checks the tentpole invariant: the columnar
// implementations produce a Report value-identical to the preserved
// row-walking implementations in naive_test.go.
func TestColumnarMatchesNaive(t *testing.T) {
	ds := equivDataset(t)
	want := naiveCharacterize(ds)
	diffReports(t, "columnar vs naive", want, Characterize(ds.Columns(), 0))
}

// TestColumnarFigureWrappers checks each exported per-figure entry point
// against its naive counterpart individually, so a regression names the
// figure rather than the whole report.
func TestColumnarFigureWrappers(t *testing.T) {
	ds := equivDataset(t)
	check := func(name string, want, got any) {
		t.Helper()
		ws, gs := fmt.Sprintf("%v", want), fmt.Sprintf("%v", got)
		if ws != gs {
			t.Errorf("%s differs\n want %.400s\n  got %.400s", name, ws, gs)
		}
	}
	check("Runtimes", naiveRuntimes(ds), Runtimes(ds.Columns()))
	check("Waits", naiveWaits(ds), Waits(ds.Columns()))
	check("Utilization", naiveUtilization(ds), Utilization(ds.Columns()))
	check("PCIe", naivePCIe(ds), PCIe(ds.Columns()))
	check("ByInterface", naiveByInterface(ds), ByInterface(ds.Columns()))
	check("Phases", naivePhases(ds), Phases(ds.Columns()))
	check("ActiveVariability", naiveActiveVariability(ds), ActiveVariability(ds.Columns()))
	check("Bottlenecks", naiveBottlenecks(ds), Bottlenecks(ds.Columns()))
	check("Power", naivePower(ds), Power(ds.Columns()))
	check("GPUCounts", naiveGPUCounts(ds), GPUCounts(ds.Columns()))
	check("MultiGPU", naiveMultiGPU(ds), MultiGPU(ds.Columns()))
	check("Lifecycle", naiveLifecycle(ds), Lifecycle(ds.Columns()))
	check("UserMix", naiveUserMix(ds), UserMix(ds.Columns()))
	check("Concentration", naiveConcentration(ds), Concentration(ds.Columns()))
	check("HostCPU", naiveHostCPU(ds), HostCPU(ds.Columns()))
	check("AggregateUsers", naiveAggregateUsers(ds), AggregateUsers(ds.Columns()))
}

// TestParallelWorkerEquivalence checks that Characterize is bit-identical
// for any worker count: the serial path and pools of 2 and 8 workers must
// assemble the same Report. `make race` runs this under the race detector.
func TestParallelWorkerEquivalence(t *testing.T) {
	ds := equivDataset(t)
	want := Characterize(ds.Columns(), 1)
	for _, workers := range []int{2, 8} {
		diffReports(t, fmt.Sprintf("workers=%d vs serial", workers), want,
			Characterize(ds.Columns(), workers))
	}
	diffReports(t, "workers=default vs serial", want, Characterize(ds.Columns(), 0))
}

// TestRunTasksPanic pins the pool's failure contract: a panicking task does
// not wedge the pool, later tasks still run, and the panic resurfaces.
func TestRunTasksPanic(t *testing.T) {
	ran := make([]bool, 6)
	tasks := make([]func(), 6)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			ran[i] = true
			if i == 2 {
				panic("boom")
			}
		}
	}
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want boom", p)
		}
		for i, ok := range ran {
			if !ok {
				t.Errorf("task %d never ran", i)
			}
		}
	}()
	runTasks(3, tasks)
}
