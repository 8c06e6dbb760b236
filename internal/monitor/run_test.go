package monitor

// Run's chunked grid walk against the sample-by-sample loop it replaced,
// the regression test for Series' interval under drops, BenchmarkMonitorRun
// and the allocation guard `make alloc-guard` runs.

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// specRun is Run as one loop over single samples, the form it had before
// the grid was walked in chunks: per grid time a drop decision, one Source
// call, the fault jitter and the fold. Run on a twin monitor must leave the
// same accumulators, series and drop count.
func specRun(m *JobMonitor) {
	if m.ran {
		return
	}
	m.ran = true
	if m.stalled {
		return
	}
	var one [1]gpu.Utilization
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
		for k := 0; k < n; k++ {
			t := (float64(k) + 0.5) * interval
			if m.fault.DropRate > 0 && m.faultRNG.Bool(m.fault.DropRate) {
				m.droppedSamples++
				continue
			}
			src.SampleTimes([]float64{t}, one[:], m.rng)
			u := one[0]
			if jf := m.fault.JitterFactor; jf > 1 {
				extra := (jf - 1) * 0.05
				u.SMPct *= 1 + extra*m.faultRNG.NormFloat64()
				u.MemPct *= 1 + extra*m.faultRNG.NormFloat64()
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
				m.acc[gi][mi].Add(vals[mi])
			}
			if m.cfg.RetainSeries {
				m.series[gi] = append(m.series[gi], metrics.Sample{TimeSec: t, Values: vals})
			}
		}
	}
}

// genJob is one generated GPU job's identity and sources.
type genJob struct {
	id      int64
	sources []Source
}

// generatedJobs returns the GPU jobs of a fixed, seeded generator
// population, at most limit of them: calibrated phase structure, bursts,
// idle GPUs and multi-GPU jobs.
func generatedJobs(tb testing.TB, scale float64, seed uint64, limit int) []genJob {
	tb.Helper()
	gcfg := workload.ScaledConfig(scale)
	gcfg.Seed = seed
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	var jobs []genJob
	for _, sp := range gen.GenerateSpecs() {
		if !sp.IsGPU() || len(jobs) == limit {
			continue
		}
		srcs := make([]Source, len(sp.Profiles))
		for i, p := range sp.Profiles {
			srcs[i] = p
		}
		jobs = append(jobs, genJob{id: sp.ID, sources: srcs})
	}
	return jobs
}

// TestRunMatchesSampleLoop holds the chunked Run to specRun bit for bit on
// generated jobs, healthy and under every fault knob, with and without
// retained series (stretched cadence included).
func TestRunMatchesSampleLoop(t *testing.T) {
	jobs := generatedJobs(t, 0.01, 5, 120)
	multi := 0
	for _, j := range jobs {
		if len(j.sources) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("fixture has no multi-GPU job")
	}
	plan := FaultPlan{
		1: {DropRate: 0.3},
		2: {JitterFactor: 3},
		3: {DropRate: 0.5, JitterFactor: 1.5, StallProb: 0.2},
		4: {DropRate: 0.97, JitterFactor: 4},
	}
	cases := []struct {
		name   string
		cfg    Config
		retain bool
	}{
		{"30s", Config{GPUIntervalSec: 30, CPUIntervalSec: 10}, false},
		{"7s-retain", Config{GPUIntervalSec: 7, CPUIntervalSec: 10, MaxSamplesPerGPU: 20000}, true},
		{"20s-stretch", Config{GPUIntervalSec: 20, CPUIntervalSec: 10, MaxSamplesPerGPU: 300}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPipeline(tc.cfg, 11)
			if err != nil {
				t.Fatal(err)
			}
			p.InjectFaults(plan)
			var samples, dropped int64
			for _, j := range jobs {
				node := int(j.id % 5)
				got := p.Prolog(j.id, node, gpu.V100(), gpu.DefaultPowerModel(), j.sources, tc.retain)
				want := p.Prolog(j.id, node, gpu.V100(), gpu.DefaultPowerModel(), j.sources, tc.retain)
				got.Run()
				specRun(want)
				if !reflect.DeepEqual(got.Summaries(), want.Summaries()) {
					t.Fatalf("job %d (node %d): Run digest %+v, spec %+v", j.id, node, got.Summaries(), want.Summaries())
				}
				if !reflect.DeepEqual(got.series, want.series) {
					t.Fatalf("job %d (node %d): Run series differs from the spec's", j.id, node)
				}
				if got.droppedSamples != want.droppedSamples {
					t.Fatalf("job %d (node %d): Run dropped %d samples, spec %d", j.id, node, got.droppedSamples, want.droppedSamples)
				}
				if *got.rng != *want.rng || (got.faultRNG != nil && *got.faultRNG != *want.faultRNG) {
					t.Fatalf("job %d (node %d): RNG state differs from the spec's after the run", j.id, node)
				}
				for gi := range got.acc {
					samples += int64(got.acc[gi][metrics.SMUtil].N())
				}
				dropped += got.droppedSamples
			}
			if dropped == 0 || samples < 10*sampleChunk {
				t.Fatalf("fixture too thin: %d samples, %d dropped", samples, dropped)
			}
		})
	}
}

// TestRunConcurrentMatchesSerial: monitors of one pipeline run on several
// goroutines at once (engine replications do) share the chunk pool, and
// must produce what a serial run produces.
func TestRunConcurrentMatchesSerial(t *testing.T) {
	jobs := generatedJobs(t, 0.005, 3, 40)
	cfg := Config{GPUIntervalSec: 15, CPUIntervalSec: 10}
	serial, err := NewPipeline(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := NewPipeline(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pipeline{serial, conc} {
		p.InjectFaults(FaultPlan{1: {DropRate: 0.2, JitterFactor: 2}})
	}
	for _, j := range jobs {
		if err := serial.Epilog(serial.Prolog(j.id, int(j.id%2), gpu.V100(), gpu.DefaultPowerModel(), j.sources, true)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += 4 {
				j := jobs[i]
				if err := conc.Epilog(conc.Prolog(j.id, int(j.id%2), gpu.V100(), gpu.DefaultPowerModel(), j.sources, true)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, j := range jobs {
		if !reflect.DeepEqual(conc.Summaries(j.id), serial.Summaries(j.id)) ||
			!reflect.DeepEqual(conc.Series(j.id), serial.Series(j.id)) {
			t.Fatalf("job %d: concurrent run differs from the serial one", j.id)
		}
	}
}

// TestSeriesIntervalUnderDrops: a collector that drops samples still samples
// on its grid, and Series reports that grid's spacing. It used to infer the
// spacing from the first two retained samples, so at a 1 s cadence and a
// drop rate of 0.5 it reported 2 s or more whenever the second grid sample
// was lost, and phase durations summed from the series came out inflated.
func TestSeriesIntervalUnderDrops(t *testing.T) {
	prof := testProfile(t, 600, 0.5, 40)
	for seed := uint64(1); seed <= 5; seed++ {
		p, err := NewPipeline(DefaultConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		p.InjectFaults(FaultPlan{0: {DropRate: 0.5}})
		if err := p.Epilog(p.Prolog(1, 0, gpu.V100(), gpu.DefaultPowerModel(), []Source{prof}, true)); err != nil {
			t.Fatal(err)
		}
		if p.DroppedSamples() == 0 {
			t.Fatalf("seed %d: no sample dropped", seed)
		}
		if got := p.Series(1).IntervalSec; got != 1 {
			t.Fatalf("seed %d: series interval %v s, want the 1 s cadence", seed, got)
		}
	}
}

// BenchmarkMonitorRun times Run alone over the first 200 GPU jobs of a fixed
// seeded generator population, at the simulation default cadence (30 s) and
// at 1 s, reporting the cost and allocations per sample. Prolog runs with the
// timer stopped and outside the allocation count.
func BenchmarkMonitorRun(b *testing.B) {
	jobs := generatedJobs(b, 0.02, 1, 200)
	pm := gpu.PowerModel(gpu.DefaultPowerModel())
	for _, iv := range []float64{30, 1} {
		b.Run(fmt.Sprintf("interval=%gs", iv), func(b *testing.B) {
			p, err := NewPipeline(Config{GPUIntervalSec: iv, CPUIntervalSec: 10}, 1)
			if err != nil {
				b.Fatal(err)
			}
			mons := make([]*JobMonitor, len(jobs))
			var samples int64
			var mallocs uint64
			var before, after runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k, j := range jobs {
					mons[k] = p.Prolog(j.id, 0, gpu.V100(), pm, j.sources, false)
				}
				runtime.ReadMemStats(&before)
				b.StartTimer()
				for _, m := range mons {
					m.Run()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				for _, m := range mons {
					for gi := range m.acc {
						samples += int64(m.acc[gi][metrics.SMUtil].N())
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
			b.ReportMetric(float64(mallocs)/float64(samples), "allocs/sample")
			b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
		})
	}
}

// TestMonitorRunAllocBudget pins the monitor's allocations: a job costs a
// small constant (the JobMonitor, its RNG and its accumulators, all from
// Prolog) and a sample costs nothing. Sampling the same jobs at 1 s instead
// of 30 s takes 30 times the samples and must not allocate more; a chunk
// buffer that escaped to the heap per job or per GPU would show as one
// allocation per job more.
func TestMonitorRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	jobs := generatedJobs(t, 0.01, 1, 60)
	// Converted once, as the simulator holds it: converting the model to
	// the interface per call would allocate in the test, not in Prolog.
	pm := gpu.PowerModel(gpu.DefaultPowerModel())
	perJob := func(iv float64) float64 {
		p, err := NewPipeline(Config{GPUIntervalSec: iv, CPUIntervalSec: 10}, 1)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			for _, j := range jobs {
				p.Prolog(j.id, 0, gpu.V100(), pm, j.sources, false).Run()
			}
		})
		return allocs / float64(len(jobs))
	}
	coarse, fine := perJob(30), perJob(1)
	// Prolog makes three objects a job: the JobMonitor, its RNG and its
	// accumulator slice.
	const budget = 3
	if coarse > budget || fine > budget {
		t.Fatalf("Prolog+Run allocate %.2f objects a job at 30 s and %.2f at 1 s, budget %d", coarse, fine, budget)
	}
	t.Logf("Prolog+Run: %.2f allocs/job at 30 s, %.2f at 1 s, over %d jobs", coarse, fine, len(jobs))
}
