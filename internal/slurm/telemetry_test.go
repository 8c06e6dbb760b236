package slurm

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func TestTelemetryRecordsTransitions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := sim.EnableTelemetry(0)
	// Three staggered 2-GPU jobs: occupancy steps up to 6 then drains.
	specs := []workload.JobSpec{
		mkGPUSpec(t, 1, 0, 1000, 2),
		mkGPUSpec(t, 2, 100, 1000, 2),
		mkGPUSpec(t, 3, 200, 1000, 2),
	}
	if _, _, err := sim.Run(specs); err != nil {
		t.Fatal(err)
	}
	if len(tel.Points) < 4 {
		t.Fatalf("telemetry has %d points", len(tel.Points))
	}
	peakBusy := 0
	for _, p := range tel.Points {
		if p.BusyGPUs > peakBusy {
			peakBusy = p.BusyGPUs
		}
	}
	if peakBusy != 6 {
		t.Fatalf("peak busy = %d, want 6", peakBusy)
	}
	if last := tel.Points[len(tel.Points)-1]; last.BusyGPUs != 0 || last.QueueLen != 0 {
		t.Fatalf("final state not drained: %+v", last)
	}
	q := tel.OccupancyQuantiles(16, 0.5)
	if math.IsNaN(q[0]) || q[0] < 0 || q[0] > 1 {
		t.Fatalf("occupancy median = %v", q[0])
	}
}

// TestOccupancyQuantilesTimeWeighted: a long fully occupied span followed
// by a burst of many short, nearly idle intervals. Time-weighting puts the
// median at full occupancy; counting one sample per interval would let the
// burst pull it down to 1/16.
func TestOccupancyQuantilesTimeWeighted(t *testing.T) {
	tel := &Telemetry{maxPoints: 1024}
	tel.Points = append(tel.Points, TelemetryPoint{TimeSec: 0, BusyGPUs: 16})
	for i := 0; i <= 100; i++ {
		tel.Points = append(tel.Points, TelemetryPoint{TimeSec: 10000 + float64(i), BusyGPUs: 1})
	}
	q := tel.OccupancyQuantiles(16, 0, 0.005, 0.5, 0.9, 1)
	want := []float64{1.0 / 16, 1.0 / 16, 1, 1, 1}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("occupancy quantiles = %v, want %v", q, want)
		}
	}
	if q := (&Telemetry{}).OccupancyQuantiles(16, 0.5); q[0] != 0 {
		t.Fatalf("empty telemetry median = %v, want 0", q[0])
	}
}

func TestTelemetryQueueDepth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster() // 16 GPUs
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := sim.EnableTelemetry(0)
	// 20 simultaneous single-GPU jobs: 4 must queue.
	var specs []workload.JobSpec
	for i := int64(1); i <= 20; i++ {
		specs = append(specs, mkGPUSpec(t, i, 0, 500, 1))
	}
	if _, _, err := sim.Run(specs); err != nil {
		t.Fatal(err)
	}
	if peak := tel.PeakQueueLen(); peak != 4 {
		t.Fatalf("peak queue = %d, want 4", peak)
	}
}

func TestTelemetryThinning(t *testing.T) {
	tel := &Telemetry{maxPoints: 1024}
	for i := 0; i < 5000; i++ {
		tel.record(float64(i), i%16, 0, 0)
	}
	if len(tel.Points) >= 1024 {
		t.Fatalf("thinning failed: %d points", len(tel.Points))
	}
	// Points remain time-ordered after thinning.
	for i := 1; i < len(tel.Points); i++ {
		if tel.Points[i].TimeSec <= tel.Points[i-1].TimeSec {
			t.Fatal("points out of order after thinning")
		}
	}
}

func TestTelemetrySameInstantCollapse(t *testing.T) {
	tel := &Telemetry{maxPoints: 1024}
	tel.record(10, 1, 5, 0)
	tel.record(10, 3, 2, 0)
	if len(tel.Points) != 1 {
		t.Fatalf("same-instant events not collapsed: %d points", len(tel.Points))
	}
	if tel.Points[0].BusyGPUs != 3 || tel.Points[0].QueueLen != 2 {
		t.Fatalf("collapsed point holds stale state: %+v", tel.Points[0])
	}
}

func TestWaitBySizeDES(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster = smallCluster()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []workload.JobSpec{
		mkGPUSpec(t, 1, 0, 600, 1),
		mkGPUSpec(t, 2, 0, 600, 2),
		mkGPUSpec(t, 3, 0, 600, 4),
		mkCPUSpec(4, 0, 600, 20, false),
	}
	results, _, err := sim.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	waits := WaitBySize(specs, results)
	// Idle cluster: all classes start immediately.
	for c := 0; c < 3; c++ {
		if waits[c] != 0 {
			t.Fatalf("class %d wait = %v on idle cluster", c, waits[c])
		}
	}
	if !math.IsNaN(waits[3]) {
		t.Fatalf("empty class should be NaN, got %v", waits[3])
	}
}
