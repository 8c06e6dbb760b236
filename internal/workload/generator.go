package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/trace"
)

// JobSpec is the complete pre-execution description of one job: who submits
// it, when, what it asks for, how long it would run, how it ends, and the
// utilization trajectory of every GPU it holds. Both dataset-construction
// paths consume specs — the analytic path summarizes them directly, the
// discrete-event path schedules them on the simulated cluster.
type JobSpec struct {
	ID        int64
	User      int
	Category  trace.Category
	Interface trace.Interface
	Exit      trace.ExitStatus

	SubmitSec float64
	RunSec    float64
	LimitSec  float64

	NumGPUs     int
	CoresPerGPU int
	MemGBPerGPU float64
	Cores       int     // CPU-only jobs: total cores
	MemGB       float64 // CPU-only jobs: total memory
	Exclusive   bool    // CPU-only jobs: whole-node reservation

	// Profiles holds one utilization trajectory per GPU; nil for CPU jobs.
	Profiles []*Profile
}

// IsGPU reports whether the spec requests GPUs.
func (s *JobSpec) IsGPU() bool { return s.NumGPUs > 0 }

// Config parameterizes a Generator.
type Config struct {
	Seed         uint64
	Users        int
	TotalJobs    int
	DurationDays float64
	// TimeSeriesJobs is the size of the detailed-monitoring subset (the
	// paper logged 2,149 jobs at 100 ms).
	TimeSeriesJobs int
	// TimeSeriesIntervalSec is the detailed sampling cadence. The paper used
	// 0.1 s; the default here is 1 s to bound memory, with the cadence fully
	// configurable (see DESIGN.md substitutions).
	TimeSeriesIntervalSec float64
	// MaxSeriesSamples caps one job's series length; longer jobs are sampled
	// at a proportionally coarser cadence.
	MaxSeriesSamples int
	Calib            Calibration
	GPUSpec          gpu.Spec
	PowerModel       gpu.PowerModel
}

// DefaultConfig returns the paper-scale configuration: 191 users, 74,820
// jobs over 125 days, 2,149-job detailed subset.
func DefaultConfig() Config {
	return Config{
		Seed:                  1,
		Users:                 191,
		TotalJobs:             74820,
		DurationDays:          125,
		TimeSeriesJobs:        2149,
		TimeSeriesIntervalSec: 1,
		MaxSeriesSamples:      20000,
		Calib:                 DefaultCalibration(),
		GPUSpec:               gpu.V100(),
		PowerModel:            gpu.DefaultPowerModel(),
	}
}

// ScaledConfig returns DefaultConfig with the population scaled by factor
// (users, jobs and the detailed subset), for tests and quick runs.
func ScaledConfig(factor float64) Config {
	cfg := DefaultConfig()
	scale := func(n int) int {
		v := int(math.Round(float64(n) * factor))
		if v < 1 {
			v = 1
		}
		return v
	}
	cfg.Users = scale(cfg.Users)
	cfg.TotalJobs = scale(cfg.TotalJobs)
	cfg.TimeSeriesJobs = scale(cfg.TimeSeriesJobs)
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Users < 1 || c.TotalJobs < 1 {
		return fmt.Errorf("workload: need at least one user and one job")
	}
	if c.DurationDays <= 0 {
		return fmt.Errorf("workload: non-positive duration")
	}
	if c.TimeSeriesIntervalSec <= 0 {
		return fmt.Errorf("workload: non-positive sampling interval")
	}
	if c.PowerModel == nil {
		return fmt.Errorf("workload: nil power model")
	}
	return c.Calib.Validate()
}

// Generator synthesizes the job population.
type Generator struct {
	cfg     Config
	users   []User
	arrival *ArrivalProcess
	lv      levelSamplers
	root    *dist.RNG
}

// NewGenerator builds a generator; the same (config, seed) always yields the
// same population.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := dist.New(cfg.Seed)
	g := &Generator{cfg: cfg, root: root}
	g.users = BuildUsers(cfg.Calib, cfg.Users, cfg.TotalJobs, root.Split())
	g.arrival = NewArrivalProcess(cfg.Calib, cfg.DurationDays)
	g.lv = newLevelSamplers(cfg.Calib)
	return g, nil
}

// levelSamplers bundles the distributions behind per-job utilization draws.
type levelSamplers struct {
	smByCat     [trace.NumCategories]dist.Sampler
	memRatio    dist.Sampler
	memIntSM    dist.Sampler
	memIntMem   dist.Sampler
	memSizeHi   dist.Sampler
	memSizeLo   dist.Sampler
	pcieTx      dist.Sampler
	pcieRx      dist.Sampler
	activeHi    dist.Sampler
	activeLowME dist.Sampler
	activeDev   dist.Sampler
	activeIDE   dist.Sampler
	ifaceNonIDE *dist.Categorical
	coresPerGPU *dist.Categorical
}

func newLevelSamplers(c Calibration) levelSamplers {
	var lv levelSamplers
	// Active-phase SM levels per category (Figs. 5, 16). The per-job mean is
	// the level × active fraction, so levels sit above the target means.
	lv.smByCat[trace.Mature] = dist.NewMixture(
		dist.Component{Weight: 0.48, Dist: dist.Triangular{Low: 12, Mode: 42, High: 75}},
		dist.Component{Weight: 0.52, Dist: dist.Triangular{Low: 48, Mode: 78, High: 100}},
	)
	lv.smByCat[trace.Exploratory] = dist.NewMixture(
		dist.Component{Weight: 0.54, Dist: dist.Triangular{Low: 10, Mode: 34, High: 60}},
		dist.Component{Weight: 0.46, Dist: dist.Triangular{Low: 42, Mode: 68, High: 95}},
	)
	lv.smByCat[trace.Development] = dist.NewMixture(
		dist.Component{Weight: 0.70, Dist: dist.Uniform{Low: 0, High: 5}},
		dist.Component{Weight: 0.30, Dist: dist.Triangular{Low: 5, Mode: 15, High: 40}},
	)
	lv.smByCat[trace.IDE] = dist.NewMixture(
		dist.Component{Weight: 0.85, Dist: dist.Uniform{Low: 0, High: 2}},
		dist.Component{Weight: 0.15, Dist: dist.Triangular{Low: 3, Mode: 8, High: 20}},
	)
	// Memory bandwidth rides compute except in memory-intensive jobs.
	lv.memRatio = dist.Uniform{Low: 0.02, High: 0.15}
	lv.memIntSM = dist.Uniform{Low: 0, High: 6}
	lv.memIntMem = dist.Triangular{Low: 3, Mode: 10, High: 35}
	// Memory size (Fig. 4a: median 9 %, 15 % of jobs above 50 %).
	lv.memSizeHi = dist.NewMixture(
		dist.Component{Weight: 0.53, Dist: dist.Triangular{Low: 1, Mode: 6, High: 15}},
		dist.Component{Weight: 0.32, Dist: dist.Triangular{Low: 8, Mode: 18, High: 40}},
		dist.Component{Weight: 0.15, Dist: dist.Triangular{Low: 45, Mode: 70, High: 100}},
	)
	lv.memSizeLo = dist.Triangular{Low: 0.5, Mode: 4, High: 30}
	// PCIe bandwidths: the paper's Fig. 4b CDFs are near-linear, i.e. the
	// per-job means are close to uniformly spread.
	lv.pcieTx = dist.Uniform{Low: 0, High: 88}
	lv.pcieRx = dist.Uniform{Low: 0, High: 95}
	// Active-time fractions (Fig. 6a: median 84 %, p25 14 %, p75 95 %).
	lv.activeHi = dist.Beta{A: 8, B: 1}
	lv.activeLowME = dist.Uniform{Low: 0.02, High: 0.20}
	lv.activeDev = dist.Uniform{Low: 0.02, High: 0.30}
	lv.activeIDE = dist.Uniform{Low: 0.005, High: 0.12}
	w := c.NonIDEInterfaceWeights
	lv.ifaceNonIDE = dist.NewCategorical(w[trace.MapReduce], w[trace.Batch], w[trace.Interactive], w[trace.Other])
	// Host-CPU slice per GPU: GPU jobs "request fewer CPU cores" (§III).
	lv.coresPerGPU = dist.NewCategorical(0.25, 0.35, 0.25, 0.15) // 2, 4, 8, 12 cores
	return lv
}

var coresPerGPUChoices = []int{2, 4, 8, 12}

// interfaceUtilFactor scales utilization by submission interface (Fig. 5:
// map-reduce and interactive jobs spend their time in data movement and
// user think-time).
func interfaceUtilFactor(i trace.Interface) float64 {
	switch i {
	case trace.MapReduce:
		return 0.30
	case trace.Interactive:
		return 0.35
	case trace.Batch:
		return 0.70
	default:
		return 1.0
	}
}

// GenerateSpecs synthesizes the full job population, sorted by submission
// time with IDs assigned in submission order.
func (g *Generator) GenerateSpecs() []JobSpec {
	specs := make([]JobSpec, 0, g.cfg.TotalJobs)
	horizon := g.cfg.DurationDays * 86400
	for ui := range g.users {
		u := &g.users[ui]
		// Each user's stream is derived from the root so that the user's
		// jobs are invariant under changes to other users.
		rng := dist.New(g.cfg.Seed ^ (0x9E3779B97F4A7C15 * uint64(ui+1)))
		// Session-structured submissions: bursts of work separated by
		// density-sampled session starts.
		sessionLeft := 0
		var clock float64
		for k := 0; k < u.JobCount; k++ {
			if sessionLeft <= 0 || clock > horizon {
				clock = g.arrival.SampleSec(rng)
				sessionLeft = 1 + rng.Intn(int(2*g.cfg.Calib.SessionMeanJobs))
			} else {
				clock += dist.Exponential{Mean: g.cfg.Calib.SessionGapMeanSec}.Sample(rng)
				if clock > horizon {
					clock = g.arrival.SampleSec(rng)
					sessionLeft = 1 + rng.Intn(int(2*g.cfg.Calib.SessionMeanJobs))
				}
			}
			sessionLeft--
			var sp JobSpec
			if rng.Bool(u.GPUFrac) {
				sp = g.gpuJob(u, rng)
			} else {
				sp = g.cpuJob(u, rng)
			}
			sp.SubmitSec = clock
			specs = append(specs, sp)
		}
	}
	sort.Slice(specs, func(a, b int) bool { return specs[a].SubmitSec < specs[b].SubmitSec })
	for i := range specs {
		specs[i].ID = int64(i + 1)
	}
	return specs
}

// gpuJob synthesizes one GPU job for user u.
func (g *Generator) gpuJob(u *User, rng *dist.RNG) JobSpec {
	c := g.cfg.Calib
	cat := CategoryFromDraw(u.CategoryMix.Draw(rng))

	var iface trace.Interface
	if cat == trace.IDE {
		iface = trace.Interactive
	} else {
		iface = trace.Interface(g.lv.ifaceNonIDE.Draw(rng))
	}

	spec := JobSpec{
		User:      u.Index,
		Category:  cat,
		Interface: iface,
	}

	// GPU count.
	spec.NumGPUs = 1
	multiProb := u.MultiProb
	if cat == trace.Exploratory {
		multiProb = clampF(multiProb*c.ExplMultiBoost, 0, 0.9)
	}
	if u.MaxGPUs > 1 && rng.Bool(multiProb) {
		spec.NumGPUs = drawGPUCount(u.MaxGPUs, rng)
	}

	// Run time and terminal disposition.
	switch cat {
	case trace.IDE:
		// IDE sessions idle until the wall-clock limit kills them (§VI).
		if rng.Bool(c.IDETimeoutShortProb) {
			spec.LimitSec = 12 * 3600
		} else {
			spec.LimitSec = 24 * 3600
		}
		spec.RunSec = spec.LimitSec
		spec.Exit = trace.ExitTimeout
	default:
		runMin := u.RuntimeMedianMin * c.CategoryRuntimeFactor[cat] *
			math.Exp(u.RuntimeLogSigma*rng.NormFloat64())
		if spec.NumGPUs > 1 {
			runMin *= c.MultiGPURuntimeFactor
		}
		runMin = clampF(runMin, 0.6, c.MaxRunMinutes)
		spec.RunSec = runMin * 60
		spec.LimitSec = 24 * 3600
		if spec.RunSec > spec.LimitSec {
			spec.RunSec = spec.LimitSec - 60
		}
		switch cat {
		case trace.Mature:
			spec.Exit = trace.ExitSuccess
		case trace.Exploratory:
			spec.Exit = trace.ExitCancelled
		default:
			spec.Exit = trace.ExitFailed
		}
	}
	// A sliver of GPU jobs are under the 30 s analysis filter.
	if cat != trace.IDE && rng.Bool(c.ShortGPUJobFraction) {
		spec.RunSec = 2 + 23*rng.Float64()
	}

	// Host-side request.
	spec.CoresPerGPU = coresPerGPUChoices[g.lv.coresPerGPU.Draw(rng)]
	spec.MemGBPerGPU = 16 + 48*rng.Float64()

	// Utilization levels.
	ifF := interfaceUtilFactor(iface)
	var level gpu.Utilization
	memIntensive := (cat == trace.Mature || cat == trace.Exploratory) && rng.Bool(c.MemIntensiveFrac)
	if memIntensive {
		level.SMPct = g.lv.memIntSM.Sample(rng)
		level.MemPct = g.lv.memIntMem.Sample(rng)
	} else {
		level.SMPct = g.lv.smByCat[cat].Sample(rng)
		level.MemPct = level.SMPct * g.lv.memRatio.Sample(rng)
	}
	// Per-job jitter decouples a user's jobs from each other (Fig. 11: the
	// median user's SM CoV is 121 %); its spread is a rank-independent user
	// trait (Fig. 12).
	jobJitter := math.Exp(u.JitterSigma*rng.NormFloat64() - u.JitterSigma*u.JitterSigma/2)
	level.SMPct *= u.UtilBias * ifF * jobJitter
	level.MemPct *= u.UtilBias * ifF * jobJitter
	if cat == trace.Mature || cat == trace.Exploratory {
		level.MemSizePct = g.lv.memSizeHi.Sample(rng)
	} else {
		level.MemSizePct = g.lv.memSizeLo.Sample(rng)
	}
	level.PCIeTxPct = g.lv.pcieTx.Sample(rng)
	level.PCIeRxPct = g.lv.pcieRx.Sample(rng)
	// A sliver of jobs pin GPU memory to capacity (Fig. 8a's memory-size
	// bottleneck bar).
	if rng.Bool(c.MemSizeSaturationProb) {
		level.MemSizePct = 99.6
	}
	level.Clamp()

	// Active fraction (Fig. 6a structure by category).
	var af float64
	switch cat {
	case trace.Development:
		af = g.lv.activeDev.Sample(rng)
	case trace.IDE:
		af = g.lv.activeIDE.Sample(rng)
	default:
		if rng.Bool(c.LowActiveFracMatureExpl) {
			af = g.lv.activeLowME.Sample(rng)
		} else {
			af = g.lv.activeHi.Sample(rng)
		}
	}

	// Saturation bursts with the Fig. 8b correlation structure.
	smB := rng.Bool(c.BurstSMProb)
	var rxB bool
	if smB {
		rxB = rng.Bool(c.BurstRxGivenSM)
	} else {
		// Marginal consistency: P(rx) = P(rx|sm)P(sm) + p(1-P(sm)).
		p := (c.BurstRxProb - c.BurstRxGivenSM*c.BurstSMProb) / (1 - c.BurstSMProb)
		rxB = rng.Bool(clampF(p, 0, 1))
	}
	var txB bool
	if rxB {
		txB = rng.Bool(c.BurstTxGivenRx)
	} else {
		p := (c.BurstTxProb - c.BurstTxGivenRx*c.BurstRxProb) / (1 - c.BurstRxProb)
		txB = rng.Bool(clampF(p, 0, 1))
	}

	// Phase synthesis, one profile per GPU. In 40 % of multi-GPU jobs half
	// or more of the GPUs never wake up (Fig. 14a); the active GPUs share
	// the level up to a small jitter (Fig. 14b).
	idleGPUs := 0
	if spec.NumGPUs > 1 && rng.Bool(c.IdleGPUJobFrac) {
		lo := (spec.NumGPUs + 1) / 2
		idleGPUs = lo + rng.Intn(spec.NumGPUs-lo)
	}
	cycles := clampF(spec.RunSec/c.MeanCycleSec, 1, float64(c.MaxCycles))
	spec.Profiles = make([]*Profile, 0, spec.NumGPUs)
	for gi := 0; gi < spec.NumGPUs; gi++ {
		if gi >= spec.NumGPUs-idleGPUs {
			spec.Profiles = append(spec.Profiles, IdleProfile(spec.RunSec, 0.5+1.5*rng.Float64()))
			continue
		}
		lvl := level
		jitter := math.Exp(0.05 * rng.NormFloat64())
		lvl.SMPct *= jitter
		lvl.MemPct *= jitter
		lvl.Clamp()
		if lvl.SMPct > 97 {
			lvl.SMPct = 97
		}
		phases := SynthesizePhases(PhaseParams{
			DurSec:      spec.RunSec,
			ActiveFrac:  af,
			Level:       lvl,
			MeanCycles:  cycles,
			SigmaActive: c.SigmaActive,
			SigmaIdle:   c.SigmaIdle,
			LevelJitter: c.LevelJitter,
			SMBurst:     smB && gi == 0,
			TxBurst:     txB && gi == 0,
			RxBurst:     rxB && gi == 0,
		}, rng)
		prof, err := NewProfile(phases, c.SampleNoisePct)
		if err != nil {
			// SynthesizePhases guarantees positive-duration phases.
			panic(err)
		}
		spec.Profiles = append(spec.Profiles, prof)
	}
	return spec
}

// drawGPUCount draws a multi-GPU size within the user's cap. Two-GPU jobs
// dominate; 3–8 GPU jobs are uncommon and 9+ rare (Fig. 13a).
func drawGPUCount(maxGPUs int, rng *dist.RNG) int {
	if maxGPUs <= 2 {
		return 2
	}
	u := rng.Float64()
	switch {
	case maxGPUs <= 8:
		switch {
		case u < 0.72:
			return 2
		case u < 0.92:
			return 3 + rng.Intn(2) // 3-4
		default:
			return 5 + rng.Intn(4) // 5-8
		}
	default:
		switch {
		case u < 0.55:
			return 2
		case u < 0.85:
			return 3 + rng.Intn(6) // 3-8
		default:
			n := 9 + rng.Intn(24) // 9-32
			if n > maxGPUs {
				n = maxGPUs
			}
			return n
		}
	}
}

// cpuJob synthesizes one CPU-only job for user u.
func (g *Generator) cpuJob(u *User, rng *dist.RNG) JobSpec {
	c := g.cfg.Calib
	run := dist.LognormalFromMedianQuartile(c.CPURunMedianMin, c.CPURunQ75Min)
	spec := JobSpec{
		User:      u.Index,
		Category:  trace.Mature,
		Interface: trace.Batch,
		Exit:      trace.ExitSuccess,
		RunSec:    clampF(run.Sample(rng), 0.1, 1440) * 60,
		LimitSec:  24 * 3600,
	}
	if rng.Bool(0.1) {
		spec.Interface = trace.Other
	}
	if rng.Bool(0.06) {
		spec.Exit = trace.ExitFailed
	}
	if rng.Bool(c.CPUExclusiveFrac) {
		// Whole-node reservations: "CPU jobs usually request all cores and
		// full memory of the nodes" (§III).
		nodes := 1
		if rng.Bool(0.25) {
			nodes = 2 + rng.Intn(3)
		}
		spec.Exclusive = true
		spec.Cores = nodes * 40
		spec.MemGB = float64(nodes) * 384
	} else {
		spec.Cores = 4 + rng.Intn(36)
		spec.MemGB = float64(8 + rng.Intn(256))
	}
	return spec
}
