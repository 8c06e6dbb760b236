package slurm

import (
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TelemetryPoint is one sample of cluster state, recorded at every
// scheduling event.
type TelemetryPoint struct {
	TimeSec  float64
	BusyGPUs int
	QueueLen int
	// DownGPUs is the capacity lost to node outages at this instant (always
	// zero without a fault plan).
	DownGPUs int
}

// Telemetry accumulates the cluster-state series of a run when enabled via
// EnableTelemetry. The series is event-driven (one point per event batch),
// which captures every transition without a polling cadence.
type Telemetry struct {
	Points []TelemetryPoint
	// maxPoints caps memory; after the cap, points are thinned by dropping
	// every other sample (retaining the envelope shape).
	maxPoints int
}

// EnableTelemetry attaches an event-driven state recorder to the simulator.
// maxPoints bounds memory (minimum 1024; 0 selects the default 65536).
func (s *Simulator) EnableTelemetry(maxPoints int) *Telemetry {
	if maxPoints <= 0 {
		maxPoints = 65536
	}
	if maxPoints < 1024 {
		maxPoints = 1024
	}
	s.telemetry = &Telemetry{maxPoints: maxPoints}
	return s.telemetry
}

// record appends a state sample, thinning when over budget.
func (t *Telemetry) record(timeSec float64, busyGPUs, queueLen, downGPUs int) {
	if n := len(t.Points); n > 0 && t.Points[n-1].TimeSec == timeSec {
		// Collapse same-instant event batches into their final state.
		t.Points[n-1].BusyGPUs = busyGPUs
		t.Points[n-1].QueueLen = queueLen
		t.Points[n-1].DownGPUs = downGPUs
		return
	}
	t.Points = append(t.Points, TelemetryPoint{TimeSec: timeSec, BusyGPUs: busyGPUs, QueueLen: queueLen, DownGPUs: downGPUs})
	if len(t.Points) >= t.maxPoints {
		kept := t.Points[:0]
		for i := 0; i < len(t.Points); i += 2 {
			kept = append(kept, t.Points[i])
		}
		t.Points = kept
	}
}

// AvailabilityMean returns the time-weighted mean fraction of GPU capacity
// in service over the recorded window.
func (t *Telemetry) AvailabilityMean(totalGPUs int) float64 {
	if len(t.Points) < 2 || totalGPUs == 0 {
		return 1
	}
	var weighted, total float64
	for i := 1; i < len(t.Points); i++ {
		dur := t.Points[i].TimeSec - t.Points[i-1].TimeSec
		if dur <= 0 {
			continue
		}
		weighted += dur * float64(totalGPUs-t.Points[i-1].DownGPUs)
		total += dur
	}
	if total == 0 {
		return 1
	}
	return weighted / (total * float64(totalGPUs))
}

// PeakQueueLen returns the largest observed queue depth.
func (t *Telemetry) PeakQueueLen() int {
	peak := 0
	for _, p := range t.Points {
		if p.QueueLen > peak {
			peak = p.QueueLen
		}
	}
	return peak
}

// OccupancyQuantiles returns the time-weighted busy-GPU distribution at the
// given probabilities: each recorded interval contributes its occupancy
// fraction weighted by its duration, and the p-quantile is the smallest
// fraction whose intervals cover at least p of the recorded time. Without
// two points or any GPUs every quantile is 0.
func (t *Telemetry) OccupancyQuantiles(totalGPUs int, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(t.Points) < 2 || totalGPUs == 0 {
		return out
	}
	type span struct{ frac, dur float64 }
	spans := make([]span, 0, len(t.Points)-1)
	for i := 1; i < len(t.Points); i++ {
		if dur := t.Points[i].TimeSec - t.Points[i-1].TimeSec; dur > 0 {
			spans = append(spans, span{float64(t.Points[i-1].BusyGPUs) / float64(totalGPUs), dur})
		}
	}
	if len(spans) == 0 {
		return out
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].frac < spans[b].frac })
	cum := make([]float64, len(spans))
	total := 0.0
	for k, s := range spans {
		total += s.dur
		cum[k] = total
	}
	for i, p := range ps {
		k := sort.SearchFloat64s(cum, p*total)
		if k == len(cum) {
			k--
		}
		out[i] = spans[k].frac
	}
	return out
}

// WaitBySize groups DES-measured queue waits by §V size class and returns
// the per-class medians — the discrete-event counterpart of the analytic
// path's core.Waits medians.
func WaitBySize(specs []workload.JobSpec, results map[int64]*Result) [4]float64 {
	var bySize [4][]float64
	for i := range specs {
		sp := &specs[i]
		if !sp.IsGPU() {
			continue
		}
		res := results[sp.ID]
		if res == nil {
			continue
		}
		c := trace.SizeClass(sp.NumGPUs)
		bySize[c] = append(bySize[c], res.WaitSec)
	}
	var out [4]float64
	for c := range bySize {
		out[c] = stats.Median(bySize[c])
	}
	return out
}
