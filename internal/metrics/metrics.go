// Package metrics defines the shared measurement vocabulary of the
// repository: the GPU resource metrics the paper characterizes (SM
// utilization, memory-bandwidth utilization, memory-size utilization, PCIe
// Tx/Rx bandwidth, power draw), their units, and the per-metric summary
// record that both the monitoring pipeline and the trace dataset exchange.
package metrics

import (
	"fmt"
	"math"
)

// Metric identifies one monitored GPU resource. The enumeration order is
// stable and used as an array index throughout the pipeline.
type Metric int

// The monitored GPU metrics, matching the fields nvidia-smi reports and the
// paper analyzes.
const (
	// SMUtil is the streaming-multiprocessor utilization percentage
	// ("utilization.gpu" in nvidia-smi terms).
	SMUtil Metric = iota
	// MemUtil is the GPU memory-bandwidth utilization percentage
	// ("utilization.memory"); the paper calls it simply "memory utilization"
	// in keeping with Nvidia terminology.
	MemUtil
	// MemSize is the percentage of the GPU memory amount in use.
	MemSize
	// PCIeTx is the host-to-device transmit bandwidth utilization percentage
	// relative to the PCIe link maximum.
	PCIeTx
	// PCIeRx is the device-to-host receive bandwidth utilization percentage
	// relative to the PCIe link maximum.
	PCIeRx
	// Power is the board power draw in watts.
	Power

	// NumMetrics is the number of monitored metrics; valid metrics are in
	// [0, NumMetrics).
	NumMetrics
)

// BottleneckMetrics lists the metrics considered by the bottleneck analyses
// (Figs. 7b, 8): a job is bottlenecked on a metric when it touches the
// metric's capacity during its run.
var BottleneckMetrics = []Metric{SMUtil, MemUtil, MemSize, PCIeTx, PCIeRx}

// String returns the metric's short name as used in figure labels.
func (m Metric) String() string {
	switch m {
	case SMUtil:
		return "sm"
	case MemUtil:
		return "mem"
	case MemSize:
		return "memsize"
	case PCIeTx:
		return "pcie_tx"
	case PCIeRx:
		return "pcie_rx"
	case Power:
		return "power"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// Sample is one time-stamped observation of every metric on one GPU, the
// record the 100 ms monitoring stream is made of.
type Sample struct {
	TimeSec float64             // seconds since job start
	Values  [NumMetrics]float64 // indexed by Metric
}

// SummaryRecord is the per-metric min/mean/max digest that production
// monitoring stores for every job — the paper's dataset records exactly this
// ("for all jobs, the minimum, mean, and maximum resource utilization of a
// variety of CPU and GPU metrics are collected").
type SummaryRecord struct {
	Min, Mean, Max float64
}

// Valid reports whether the record is internally consistent
// (min <= mean <= max, no NaNs).
func (s SummaryRecord) Valid() bool {
	if math.IsNaN(s.Min) || math.IsNaN(s.Mean) || math.IsNaN(s.Max) {
		return false
	}
	return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
}

// MetricSummaries digests all metrics of one GPU over one job.
type MetricSummaries [NumMetrics]SummaryRecord

// Averaged returns the element-wise average of several GPUs' summaries —
// the paper's stated methodology for multi-GPU jobs ("the average over
// multiple GPUs was computed to get a single number"). It returns a zero
// value when the input is empty.
func Averaged(per []MetricSummaries) MetricSummaries {
	var out MetricSummaries
	if len(per) == 0 {
		return out
	}
	n := float64(len(per))
	for m := Metric(0); m < NumMetrics; m++ {
		var lo, mean, hi float64
		for _, p := range per {
			lo += p[m].Min
			mean += p[m].Mean
			hi += p[m].Max
		}
		out[m] = SummaryRecord{Min: lo / n, Mean: mean / n, Max: hi / n}
	}
	return out
}
