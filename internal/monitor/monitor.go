// Package monitor reimplements the paper's telemetry pipeline (§II "System
// Monitoring"): a per-job GPU sampler started by the scheduler prolog
// (nvidia-smi at 100 ms in production), a coarser CPU sampler (10 s),
// per-node local buffering so the cluster-wide file system is not overloaded,
// and an epilog that stops collection and copies each job's data to the
// central store where the Slurm and GPU datasets are joined.
//
// The samplers run in simulated time: a JobMonitor walks its job's
// utilization profiles at the configured cadence and folds each observation
// into streaming min/mean/max accumulators — exactly the digest the
// production system stores for every job — optionally retaining the full
// series for the detailed-subset analyses.
package monitor

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Source is a samplable utilization trajectory; workload.Profile implements
// it.
type Source interface {
	// SampleTimes fills out[i] with the observed utilization at ts[i] for
	// every i < len(ts), drawing observation noise from rng; a batch draws
	// what one call per time would. Callers pass ascending times.
	SampleTimes(ts []float64, out []gpu.Utilization, rng *dist.RNG)
	// TotalSec is the trajectory's duration.
	TotalSec() float64
}

// Config parameterizes the pipeline.
type Config struct {
	// GPUIntervalSec is the GPU sampling cadence. Production uses 0.1 s; the
	// simulation default is coarser because summaries converge long before
	// that and wall-clock time matters.
	GPUIntervalSec float64
	// CPUIntervalSec is the CPU sampling cadence (production: 10 s).
	CPUIntervalSec float64
	// RetainSeries keeps full sample streams, not just digests.
	RetainSeries bool
	// MaxSamplesPerGPU bounds a retained stream; the cadence stretches for
	// longer jobs (the data-volume/usability compromise the paper mentions).
	MaxSamplesPerGPU int
	// NodeBufferBytes models the per-node local buffer; a zero value means
	// unbounded. Overflow is counted, not fatal — the paper's operational
	// lesson is precisely that naive logging overloads shared storage.
	NodeBufferBytes int64
}

// DefaultConfig returns the production-shaped configuration with a
// simulation-friendly GPU cadence.
func DefaultConfig() Config {
	return Config{
		GPUIntervalSec:   1,
		CPUIntervalSec:   10,
		RetainSeries:     false,
		MaxSamplesPerGPU: 20000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.GPUIntervalSec <= 0 || c.CPUIntervalSec <= 0 {
		return fmt.Errorf("monitor: non-positive sampling interval")
	}
	return nil
}

// sampleBytes is the accounting size of one stored sample (six float64
// metrics plus a timestamp).
const sampleBytes = 56

// gridTime is the k-th time of a sampling grid with the given spacing: the
// middle of the k-th interval.
func gridTime(k int, interval float64) float64 { return (float64(k) + 0.5) * interval }

// sampleChunk is how many grid times Run and PrefixDigest hand a Source at
// once.
const sampleChunk = 256

// chunk is the scratch of one batch: the kept grid times, their
// observations, and the fault-jitter normals drawn for them (two a sample).
// A slice handed through the Source interface escapes, so a chunk on the
// stack would be a heap allocation per job; the pool makes it one per
// process instead.
type chunk struct {
	ts  [sampleChunk]float64
	us  [sampleChunk]gpu.Utilization
	jit [2 * sampleChunk]float64
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// JobMonitor samples all GPUs of one job. It is created by Pipeline.Prolog
// and finalized by Pipeline.Epilog.
type JobMonitor struct {
	JobID int64
	Node  int

	cfg     Config
	power   gpu.Meter
	sources []Source
	rng     *dist.RNG

	acc    [][metrics.NumMetrics]stats.Streaming
	series [][]metrics.Sample
	// seriesInterval is the interval Series reports: the spacing of GPU 0's
	// sampling grid (the configured cadence if the grid has one point),
	// whatever samples faults dropped.
	seriesInterval float64

	// fault state (see faults.go), then the two run flags packed together so
	// they share one padded word.
	fault          Fault
	faultRNG       *dist.RNG
	droppedSamples int64
	ran            bool
	stalled        bool
}

// Run executes the sampling loop over the job's full (simulated) duration.
// It is idempotent; the epilog calls it if the prolog's owner did not.
//
// Each GPU's grid is walked a chunk at a time. The fault stream's draws (a
// drop decision per grid time, then two jitter normals per kept sample) do
// not depend on sample values, so they are made for the whole chunk first,
// in the order a sample-by-sample loop makes them; one Source call then
// observes the kept times, and the jitter, power model and accumulators
// follow.
func (m *JobMonitor) Run() {
	if m.ran {
		return
	}
	m.ran = true
	if m.stalled {
		// Wedged collector: the job produces no telemetry at all.
		return
	}
	c := chunkPool.Get().(*chunk)
	defer chunkPool.Put(c)
	dropRate := m.fault.DropRate
	jf := m.fault.JitterFactor
	extra := (jf - 1) * 0.05
	for gi, src := range m.sources {
		dur := src.TotalSec()
		interval := m.cfg.GPUIntervalSec
		if m.cfg.RetainSeries && m.cfg.MaxSamplesPerGPU > 0 {
			if n := dur / interval; n > float64(m.cfg.MaxSamplesPerGPU) {
				interval = dur / float64(m.cfg.MaxSamplesPerGPU)
			}
		}
		n := int(dur / interval)
		if n < 1 {
			n = 1
		}
		if gi == 0 && n > 1 {
			// The difference of the first two grid times, which can differ
			// from interval in the last bit.
			m.seriesInterval = gridTime(1, interval) - gridTime(0, interval)
		}
		acc := &m.acc[gi]
		for k0 := 0; k0 < n; k0 += sampleChunk {
			kept := 0
			for k := k0; k < min(n, k0+sampleChunk); k++ {
				if dropRate > 0 && m.faultRNG.Bool(dropRate) {
					m.droppedSamples++
					continue
				}
				c.ts[kept] = gridTime(k, interval)
				if jf > 1 {
					c.jit[2*kept] = m.faultRNG.NormFloat64()
					c.jit[2*kept+1] = m.faultRNG.NormFloat64()
				}
				kept++
			}
			src.SampleTimes(c.ts[:kept], c.us[:kept], m.rng)
			for j := range kept {
				u := c.us[j]
				if jf > 1 {
					u.SMPct *= 1 + extra*c.jit[2*j]
					u.MemPct *= 1 + extra*c.jit[2*j+1]
					u.Clamp()
				}
				vals := [metrics.NumMetrics]float64{
					metrics.SMUtil:  u.SMPct,
					metrics.MemUtil: u.MemPct,
					metrics.MemSize: u.MemSizePct,
					metrics.PCIeTx:  u.PCIeTxPct,
					metrics.PCIeRx:  u.PCIeRxPct,
					metrics.Power:   m.power.Watts(u),
				}
				for mi := metrics.Metric(0); mi < metrics.NumMetrics; mi++ {
					acc[mi].Add(vals[mi])
				}
				if m.cfg.RetainSeries {
					m.series[gi] = append(m.series[gi], metrics.Sample{TimeSec: c.ts[j], Values: vals})
				}
			}
		}
	}
}

// Summaries returns the per-GPU min/mean/max digests. A GPU that produced
// no samples (stalled collector) yields zero-valued records — "no data
// recorded" — rather than NaNs that would poison downstream aggregation.
func (m *JobMonitor) Summaries() []metrics.MetricSummaries {
	out := make([]metrics.MetricSummaries, len(m.acc))
	for gi := range m.acc {
		for mi := metrics.Metric(0); mi < metrics.NumMetrics; mi++ {
			a := &m.acc[gi][mi]
			if a.N() == 0 {
				continue
			}
			out[gi][mi] = metrics.SummaryRecord{Min: a.Min(), Mean: a.Mean(), Max: a.Max()}
		}
	}
	return out
}

// Series returns the retained time series, or nil when RetainSeries is off.
func (m *JobMonitor) Series() *trace.TimeSeries {
	if !m.cfg.RetainSeries || len(m.series) == 0 {
		return nil
	}
	return &trace.TimeSeries{JobID: m.JobID, IntervalSec: m.seriesInterval, PerGPU: m.series}
}

// storedBytes returns the buffer accounting size of this monitor's data.
func (m *JobMonitor) storedBytes() int64 {
	var n int64
	for _, s := range m.series {
		n += int64(len(s)) * sampleBytes
	}
	// Digests are negligible but non-zero.
	return n + int64(len(m.acc))*int64(metrics.NumMetrics)*24
}

// NodeBuffer models one node's local monitoring storage.
type NodeBuffer struct {
	CapacityBytes int64
	UsedBytes     int64
	Overflowed    int // count of jobs whose data exceeded remaining space
}

// store accounts bytes into the buffer, recording overflow.
func (b *NodeBuffer) store(n int64) {
	b.UsedBytes += n
	if b.CapacityBytes > 0 && b.UsedBytes > b.CapacityBytes {
		b.Overflowed++
	}
}

// drain empties the buffer (epilog copy-out to central storage).
func (b *NodeBuffer) drain() { b.UsedBytes = 0 }

// Pipeline is the cluster-wide monitoring fabric: prolog/epilog entry
// points, per-node buffers, and the central collector. It is safe for
// concurrent prolog/epilog calls.
type Pipeline struct {
	cfg Config

	mu        sync.Mutex
	buffers   map[int]*NodeBuffer
	summaries map[int64][]metrics.MetricSummaries
	series    map[int64]*trace.TimeSeries
	seed      uint64

	faults  FaultPlan
	dropped int64
	stalled int
}

// NewPipeline builds a pipeline.
func NewPipeline(cfg Config, seed uint64) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{
		cfg:       cfg,
		buffers:   make(map[int]*NodeBuffer),
		summaries: make(map[int64][]metrics.MetricSummaries),
		series:    make(map[int64]*trace.TimeSeries),
		seed:      seed,
	}, nil
}

// Prolog starts monitoring a job's GPUs on the given node, mirroring the
// Slurm prolog that launches nvidia-smi on every node assigned to a GPU job.
// retainSeries optionally overrides the pipeline default for this job (the
// detailed 2,149-job subset).
func (p *Pipeline) Prolog(jobID int64, node int, spec gpu.Spec, pm gpu.PowerModel, sources []Source, retainSeries bool) *JobMonitor {
	cfg := p.cfg
	cfg.RetainSeries = cfg.RetainSeries || retainSeries
	m := &JobMonitor{
		JobID:   jobID,
		Node:    node,
		cfg:     cfg,
		power:   gpu.NewMeter(pm, spec),
		sources: sources,
		rng:     dist.New(p.seed ^ uint64(jobID)*0x9E3779B97F4A7C15),
		acc:     make([][metrics.NumMetrics]stats.Streaming, len(sources)),

		seriesInterval: cfg.GPUIntervalSec,
	}
	if cfg.RetainSeries {
		m.series = make([][]metrics.Sample, len(sources))
	}
	if f, ok := p.faultFor(node); ok {
		m.applyFault(f, p.seed)
	}
	return m
}

// Epilog stops collection (running the sampler if it has not run), accounts
// the node buffer, and copies the job's data to the central store. It errors
// on duplicate job IDs — a job must not be finalized twice.
func (p *Pipeline) Epilog(m *JobMonitor) error {
	m.Run()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.summaries[m.JobID]; dup {
		return fmt.Errorf("monitor: job %d finalized twice", m.JobID)
	}
	buf := p.buffers[m.Node]
	if buf == nil {
		buf = &NodeBuffer{CapacityBytes: p.cfg.NodeBufferBytes}
		p.buffers[m.Node] = buf
	}
	buf.store(m.storedBytes())
	sums := m.Summaries()
	p.summaries[m.JobID] = sums
	ts := m.Series()
	if ts != nil {
		p.series[m.JobID] = ts
	}
	p.recordFaultEffects(m)
	buf.drain()
	return nil
}

// Summaries returns the central store's digest for a job, or nil.
func (p *Pipeline) Summaries(jobID int64) []metrics.MetricSummaries {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.summaries[jobID]
}

// Series returns the central store's retained series for a job, or nil.
func (p *Pipeline) Series(jobID int64) *trace.TimeSeries {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.series[jobID]
}

// JobIDs returns the finalized job IDs in ascending order.
func (p *Pipeline) JobIDs() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]int64, 0, len(p.summaries))
	for id := range p.summaries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// Overflows reports the total node-buffer overflow count — the "logging can
// overload the shared file system" signal from the paper's operations
// lessons.
func (p *Pipeline) Overflows() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, b := range p.buffers {
		total += b.Overflowed
	}
	return total
}
