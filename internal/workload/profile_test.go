package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/metrics"
)

func mustProfile(t *testing.T, phases []Phase, noise float64) *Profile {
	t.Helper()
	p, err := NewProfile(phases, noise)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// SampleAt returns the observed utilization at time t: the level plus
// relative Gaussian sampling noise drawn from rng. It is the executable spec
// of SampleTimes, which must match it bit for bit, one call per time, draws
// from rng included (TestSampleTimesMatchesSampleAt).
func (p *Profile) SampleAt(t float64, rng *dist.RNG) gpu.Utilization {
	u := p.LevelAt(t)
	if p.noisePct > 0 {
		rel := p.noisePct / 100
		jitter := func(v float64) float64 {
			if v <= 0 || v >= 100 {
				return v
			}
			return v * (1 + rel*rng.NormFloat64())
		}
		u.SMPct = jitter(u.SMPct)
		u.MemPct = jitter(u.MemPct)
		u.MemSizePct = u.MemSizePct * (1 + 0.3*rel*rng.NormFloat64())
		u.PCIeTxPct = jitter(u.PCIeTxPct)
		u.PCIeRxPct = jitter(u.PCIeRxPct)
	}
	u.Clamp()
	return u
}

func twoPhase(t *testing.T) *Profile {
	return mustProfile(t, []Phase{
		{DurSec: 60, Active: false, Level: gpu.Utilization{MemSizePct: 10}},
		{DurSec: 40, Active: true, Level: gpu.Utilization{SMPct: 50, MemPct: 10, MemSizePct: 10, PCIeTxPct: 20, PCIeRxPct: 30}},
	}, 0)
}

func TestProfileBasics(t *testing.T) {
	p := twoPhase(t)
	if p.TotalSec() != 100 {
		t.Fatalf("total = %v", p.TotalSec())
	}
	if af := p.ActiveFraction(); math.Abs(af-0.4) > 1e-12 {
		t.Fatalf("active fraction = %v", af)
	}
	// During the idle phase compute metrics are zero but memory persists.
	u := p.LevelAt(30)
	if u.SMPct != 0 || u.MemPct != 0 || u.MemSizePct != 10 {
		t.Fatalf("idle level = %+v", u)
	}
	if u := p.LevelAt(80); u.SMPct != 50 {
		t.Fatalf("active level = %+v", u)
	}
	// Out-of-range times clamp.
	if u := p.LevelAt(-5); u.SMPct != 0 {
		t.Fatalf("pre-start level = %+v", u)
	}
	if u := p.LevelAt(1e9); u.SMPct != 50 {
		t.Fatalf("post-end level = %+v", u)
	}
}

func TestProfileValidation(t *testing.T) {
	if _, err := NewProfile(nil, 0); err == nil {
		t.Fatal("empty profile accepted")
	}
	if _, err := NewProfile([]Phase{{DurSec: 0}}, 0); err == nil {
		t.Fatal("zero-duration phase accepted")
	}
}

func TestBurstWindow(t *testing.T) {
	p := mustProfile(t, []Phase{
		{DurSec: 100, Active: true, Level: gpu.Utilization{SMPct: 30}, SMBurst: true, RxBurst: true},
	}, 0)
	// First 10 % of the phase saturates.
	u := p.LevelAt(5)
	if u.SMPct != 100 || u.PCIeRxPct != 100 {
		t.Fatalf("burst level = %+v", u)
	}
	if u := p.LevelAt(50); u.SMPct != 30 || u.PCIeRxPct != 0 {
		t.Fatalf("post-burst level = %+v", u)
	}
}

func TestAnalyticSummaries(t *testing.T) {
	p := twoPhase(t)
	s := p.Summaries(gpu.V100(), gpu.DefaultPowerModel())
	// Mean SM = 0.4 × 50 = 20.
	if math.Abs(s[metrics.SMUtil].Mean-20) > 1e-9 {
		t.Fatalf("mean SM = %v, want 20", s[metrics.SMUtil].Mean)
	}
	if s[metrics.SMUtil].Min != 0 || s[metrics.SMUtil].Max != 50 {
		t.Fatalf("SM min/max = %v/%v", s[metrics.SMUtil].Min, s[metrics.SMUtil].Max)
	}
	// Memory size persists across phases.
	if s[metrics.MemSize].Min != 10 || s[metrics.MemSize].Max != 10 {
		t.Fatalf("memsize = %+v", s[metrics.MemSize])
	}
	// Power: idle floor during idle phase, above floor during active.
	if s[metrics.Power].Min != 25 {
		t.Fatalf("power min = %v, want idle 25", s[metrics.Power].Min)
	}
	if s[metrics.Power].Max <= 25 || s[metrics.Power].Mean <= 25 {
		t.Fatalf("power summary = %+v", s[metrics.Power])
	}
	for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
		if !s[m].Valid() {
			t.Fatalf("metric %v summary invalid: %+v", m, s[m])
		}
	}
}

func TestBurstRaisesAnalyticMax(t *testing.T) {
	p := mustProfile(t, []Phase{
		{DurSec: 100, Active: true, Level: gpu.Utilization{SMPct: 30}, SMBurst: true},
	}, 0)
	s := p.Summaries(gpu.V100(), gpu.DefaultPowerModel())
	if s[metrics.SMUtil].Max != 100 {
		t.Fatalf("burst SM max = %v, want 100", s[metrics.SMUtil].Max)
	}
	// Mean includes the 10 % burst window: 0.9×30 + 0.1×100 = 37.
	if math.Abs(s[metrics.SMUtil].Mean-37) > 1e-9 {
		t.Fatalf("burst SM mean = %v, want 37", s[metrics.SMUtil].Mean)
	}
}

func TestSampledAgreesWithAnalytic(t *testing.T) {
	p := mustProfile(t, []Phase{
		{DurSec: 600, Active: false, Level: gpu.Utilization{MemSizePct: 20}},
		{DurSec: 1400, Active: true, Level: gpu.Utilization{SMPct: 40, MemPct: 8, MemSizePct: 20, PCIeTxPct: 15, PCIeRxPct: 25}},
	}, 2)
	s := p.Summaries(gpu.V100(), gpu.DefaultPowerModel())
	rng := dist.New(9)
	var acc [metrics.NumMetrics]float64
	const n = 4000
	for k := 0; k < n; k++ {
		u := p.SampleAt(float64(k)*p.TotalSec()/n, rng)
		acc[metrics.SMUtil] += u.SMPct
		acc[metrics.MemUtil] += u.MemPct
		acc[metrics.MemSize] += u.MemSizePct
		acc[metrics.PCIeTx] += u.PCIeTxPct
		acc[metrics.PCIeRx] += u.PCIeRxPct
	}
	for _, m := range []metrics.Metric{metrics.SMUtil, metrics.MemUtil, metrics.MemSize, metrics.PCIeTx, metrics.PCIeRx} {
		got := acc[m] / n
		want := s[m].Mean
		if math.Abs(got-want) > 1+0.05*want {
			t.Fatalf("metric %v sampled mean %v vs analytic %v", m, got, want)
		}
	}
}

func TestIdleProfile(t *testing.T) {
	p := IdleProfile(300, 2)
	if p.ActiveFraction() != 0 {
		t.Fatal("idle profile has active time")
	}
	s := p.Summaries(gpu.V100(), gpu.DefaultPowerModel())
	if s[metrics.SMUtil].Max != 0 {
		t.Fatalf("idle profile SM max = %v", s[metrics.SMUtil].Max)
	}
	if s[metrics.MemSize].Mean != 2 {
		t.Fatalf("idle profile memsize = %v", s[metrics.MemSize].Mean)
	}
	if s[metrics.Power].Mean != 25 {
		t.Fatalf("idle profile power = %v, want idle floor", s[metrics.Power].Mean)
	}
}

func TestSynthesizePhasesActiveFraction(t *testing.T) {
	rng := dist.New(3)
	for _, af := range []float64{0.1, 0.5, 0.84, 1.0} {
		phases := SynthesizePhases(PhaseParams{
			DurSec: 3600, ActiveFrac: af, MeanCycles: 12,
			SigmaActive: 1.2, SigmaIdle: 1.0,
			Level: gpu.Utilization{SMPct: 40, MemSizePct: 10},
		}, rng)
		p := mustProfile(t, phases, 0)
		if math.Abs(p.TotalSec()-3600) > 1 {
			t.Fatalf("af=%v: total %v", af, p.TotalSec())
		}
		if got := p.ActiveFraction(); math.Abs(got-af) > 0.01 {
			t.Fatalf("af=%v: realized %v", af, got)
		}
	}
}

func TestSynthesizePhasesZeroActive(t *testing.T) {
	phases := SynthesizePhases(PhaseParams{
		DurSec: 100, ActiveFrac: 0, MeanCycles: 5,
		Level: gpu.Utilization{MemSizePct: 3},
	}, dist.New(1))
	p := mustProfile(t, phases, 0)
	if p.ActiveFraction() != 0 {
		t.Fatal("zero active fraction not honored")
	}
}

func TestSynthesizePhasesBurstAttached(t *testing.T) {
	phases := SynthesizePhases(PhaseParams{
		DurSec: 1000, ActiveFrac: 0.8, MeanCycles: 8,
		SigmaActive: 1, SigmaIdle: 1,
		Level:   gpu.Utilization{SMPct: 30},
		SMBurst: true,
	}, dist.New(5))
	found := false
	for _, ph := range phases {
		if ph.SMBurst {
			if !ph.Active {
				t.Fatal("burst on idle phase")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("requested burst not attached")
	}
}

// Property: synthesized phases always reconstruct the requested duration and
// active fraction, for any seed and parameters in range.
func TestSynthesizeProperty(t *testing.T) {
	f := func(seed uint64, afRaw, durRaw float64, cyclesRaw uint8) bool {
		af := math.Abs(math.Mod(afRaw, 1))
		dur := 60 + math.Abs(math.Mod(durRaw, 86400))
		cycles := float64(cyclesRaw%40) + 1
		phases := SynthesizePhases(PhaseParams{
			DurSec: dur, ActiveFrac: af, MeanCycles: cycles,
			SigmaActive: 1.3, SigmaIdle: 1.0, LevelJitter: 0.2,
			Level: gpu.Utilization{SMPct: 35, MemPct: 5, MemSizePct: 12},
		}, dist.New(seed))
		if cap(phases) != len(phases) {
			return false // the profile keeps the slice: no spare capacity
		}
		p, err := NewProfile(phases, 0)
		if err != nil {
			return false
		}
		if math.Abs(p.TotalSec()-dur) > 1e-6*dur+1e-6 {
			return false
		}
		return math.Abs(p.ActiveFraction()-af) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomProfile draws a profile covering what SampleTimes' phase cursor must
// get right: idle and active phases, burst windows, saturated and zero
// levels, no noise, phases too short to move the running end time (equal
// cum entries) or shorter than a nanosecond, and totals so large that
// TotalSec()-1e-9 == TotalSec().
func randomProfile(t *testing.T, rng *dist.RNG) *Profile {
	t.Helper()
	scale := []float64{1, 60, 3600, 3e7}[rng.Intn(4)]
	phases := make([]Phase, 1+rng.Intn(12))
	pct := func() float64 {
		switch v := rng.Float64(); {
		case v < 0.1:
			return 0
		case v < 0.2:
			return 100
		default:
			return 100 * rng.Float64()
		}
	}
	for i := range phases {
		dur := scale * (0.01 + rng.Float64())
		switch v := rng.Float64(); {
		case i > 0 && v < 0.1:
			dur = scale * 1e-18 // does not move cum: equal entries
		case v > 0.9:
			dur = 5e-10 // shorter than SampleAt's 1e-9 back-off from the end
		}
		phases[i] = Phase{
			DurSec:  dur,
			Active:  rng.Bool(0.6),
			Level:   gpu.Utilization{SMPct: pct(), MemPct: pct(), MemSizePct: pct(), PCIeTxPct: pct(), PCIeRxPct: pct()},
			SMBurst: rng.Bool(0.3), TxBurst: rng.Bool(0.3), RxBurst: rng.Bool(0.3),
		}
	}
	noise := 0.0
	if rng.Bool(0.8) {
		noise = 40 * rng.Float64()
	}
	return mustProfile(t, phases, noise)
}

// randomTimes draws ascending sample times over p: a grid with gaps (dropped
// samples) that may overrun the profile's end, plus the phase boundaries
// themselves, times before the start and at or past the end, and a NaN.
func randomTimes(p *Profile, rng *dist.RNG) []float64 {
	total := p.TotalSec()
	n := 1 + rng.Intn(900)
	iv := total * (0.5 + rng.Float64()) / float64(n)
	ts := []float64{math.NaN(), -1, 0, total, total + 1}
	ts = append(ts, p.cum...)
	for k := 0; k < n; k++ {
		if !rng.Bool(0.2) {
			ts = append(ts, (float64(k)+0.5)*iv)
		}
	}
	sort.Float64s(ts)
	return ts
}

// sampleBits flattens a sample to the bits of its five fields.
func sampleBits(u gpu.Utilization) [5]uint64 {
	return [5]uint64{math.Float64bits(u.SMPct), math.Float64bits(u.MemPct), math.Float64bits(u.MemSizePct),
		math.Float64bits(u.PCIeTxPct), math.Float64bits(u.PCIeRxPct)}
}

// TestSampleTimesMatchesSampleAt holds SampleTimes to its spec, SampleAt
// called once per time, bit for bit over seeded random profiles: the same
// observations and the same draws from rng, for batches that cut the times
// anywhere, ascending or not.
func TestSampleTimesMatchesSampleAt(t *testing.T) {
	gen := dist.New(2024)
	huge, ties := 0, 0
	for trial := 0; trial < 400; trial++ {
		p := randomProfile(t, gen)
		if p.TotalSec()-1e-9 == p.TotalSec() {
			huge++
		}
		for i := 1; i < len(p.cum); i++ {
			if p.cum[i] == p.cum[i-1] {
				ties++
				break
			}
		}
		ts := randomTimes(p, gen)
		if trial%4 == 3 {
			for i := len(ts) - 1; i > 0; i-- {
				j := gen.Intn(i + 1)
				ts[i], ts[j] = ts[j], ts[i]
			}
		}
		seed := gen.Uint64()
		spec := dist.New(seed)
		want := make([]gpu.Utilization, len(ts))
		for i, tm := range ts {
			want[i] = p.SampleAt(tm, spec)
		}
		for _, batch := range []int{1, 7, 256, len(ts)} {
			rng := dist.New(seed)
			got := make([]gpu.Utilization, len(ts))
			for i := 0; i < len(ts); i += batch {
				end := min(i+batch, len(ts))
				p.SampleTimes(ts[i:end], got[i:end], rng)
			}
			for i := range ts {
				if sampleBits(got[i]) != sampleBits(want[i]) {
					t.Fatalf("trial %d batch %d: t=%v sampled %+v, spec %+v", trial, batch, ts[i], got[i], want[i])
				}
			}
			if *rng != *spec {
				t.Fatalf("trial %d batch %d: rng state differs from the spec's after the batch", trial, batch)
			}
		}
	}
	if huge == 0 || ties == 0 {
		t.Fatalf("%d profiles with TotalSec()-1e-9 == TotalSec() and %d with equal cum entries; want some of each", huge, ties)
	}
}
