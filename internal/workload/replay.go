package workload

import (
	"sort"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ReplaySpecs reconstructs schedulable job specs from a recorded dataset, so
// a trace written by tracegen (or, with a converter, a real Slurm/nvidia-smi
// export) can be replayed through the discrete-event scheduler under
// different policies. It fills the scheduler-side fields only, one spec per
// record in dataset order: pass the specs through the cluster's capacity
// gate (slurm.Feasible) and then ReplayProfiles, so that a record the
// cluster rejects — say one asking for 20,000 GPUs — never has its
// utilization profiles synthesized.
func ReplaySpecs(ds *trace.Dataset) []JobSpec {
	specs := make([]JobSpec, 0, len(ds.Jobs))
	for i := range ds.Jobs {
		j := &ds.Jobs[i]
		sp := JobSpec{
			ID:          j.JobID,
			User:        j.User,
			Interface:   j.Interface,
			Exit:        j.Exit,
			SubmitSec:   j.SubmitSec,
			RunSec:      j.RunSec,
			LimitSec:    j.LimitSec,
			NumGPUs:     j.NumGPUs,
			CoresPerGPU: j.CoresPerGPU,
			Cores:       j.Cores,
			MemGB:       j.MemGB,
			Exclusive:   !j.IsGPU() && j.Cores >= 40,
		}
		if j.LimitSec <= 0 {
			sp.LimitSec = 24 * 3600
		}
		if sp.RunSec > sp.LimitSec {
			sp.LimitSec = sp.RunSec
		}
		if j.IsGPU() {
			sp.Category = trace.CategoryOf(j.Exit, j.Interface)
			if sp.CoresPerGPU == 0 {
				sp.CoresPerGPU = 4
			}
			sp.MemGBPerGPU = j.MemGB / float64(j.NumGPUs)
			if sp.MemGBPerGPU <= 0 {
				sp.MemGBPerGPU = 16
			}
		}
		specs = append(specs, sp)
	}
	return specs
}

// ReplayProfiles completes specs, a subsequence of ReplaySpecs(ds) in
// dataset order (typically the jobs slurm.Feasible admitted): it gives
// every GPU spec one utilization profile per GPU, re-synthesized from the
// record's per-GPU min/mean/max digests — the only information production
// monitoring keeps — so replayed phase structure is approximate while
// per-job means are preserved. It then sorts specs by submit time.
// Profiles draw from one stream seeded by seed, in dataset order, so a
// replay that admits every job is independent of the gate. Records must
// have distinct job IDs, as Dataset.Validate and every trace reader
// ensure.
//
// A GPU job recorded with run_sec 0 (it ended as it started, as real
// exports contain) keeps RunSec 0, so the scheduler starts and ends it at
// the same instant; its profile is synthesized over replayZeroRunSec
// instead, since a profile needs a positive span and a zero-length run
// reads only the profile's first instant.
func ReplayProfiles(ds *trace.Dataset, specs []JobSpec, seed uint64) {
	rng := dist.New(seed ^ 0x5EED5EED5EED5EED)
	next := 0
	for i := range ds.Jobs {
		if next == len(specs) {
			break
		}
		j := &ds.Jobs[i]
		if specs[next].ID != j.JobID {
			continue
		}
		sp := &specs[next]
		next++
		if !j.IsGPU() {
			continue
		}
		digests := j.PerGPU
		if len(digests) != j.NumGPUs {
			// Only the averaged digest survived (CSV path): give every
			// GPU the same reconstructed profile.
			digests = make([]metrics.MetricSummaries, j.NumGPUs)
			for g := range digests {
				digests[g] = j.GPU
			}
		}
		sp.Profiles = make([]*Profile, 0, len(digests))
		for _, d := range digests {
			sp.Profiles = append(sp.Profiles, ProfileFromSummary(d, j.RunSec, rng))
		}
	}
	sort.Slice(specs, func(a, b int) bool { return specs[a].SubmitSec < specs[b].SubmitSec })
}

// replayZeroRunSec is the profile span ReplayProfiles gives a GPU job that
// ran for 0 s.
const replayZeroRunSec = 1

// ProfileFromSummary synthesizes a phase-structured profile whose
// duration-weighted means reproduce a recorded min/mean/max digest. The
// reconstruction picks the active level between the recorded mean and max,
// then solves the active fraction so the overall mean matches; saturation
// digests (max at capacity) get a burst so bottleneck analyses survive the
// round trip.
func ProfileFromSummary(d metrics.MetricSummaries, runSec float64, rng *dist.RNG) *Profile {
	if runSec <= 0 {
		runSec = replayZeroRunSec
	}
	sm := d[metrics.SMUtil]
	mem := d[metrics.MemUtil]
	msz := d[metrics.MemSize]
	tx := d[metrics.PCIeTx]
	rx := d[metrics.PCIeRx]

	if sm.Mean < 0.5 && mem.Mean < 0.5 {
		return IdleProfile(runSec, msz.Mean)
	}
	// Active level: midway between mean and max, bounded away from zero so
	// the implied active fraction stays <= 1.
	level := (sm.Mean + sm.Max) / 2
	if level < sm.Mean {
		level = sm.Mean
	}
	if level <= 0 {
		level = 1
	}
	af := sm.Mean / level
	if af > 1 {
		af = 1
	}
	memLevel := 0.0
	if af > 0 {
		memLevel = mem.Mean / af
	}
	if memLevel > 100 {
		memLevel = 100
	}
	phases := SynthesizePhases(PhaseParams{
		DurSec:     runSec,
		ActiveFrac: af,
		Level: gpu.Utilization{
			SMPct:      level,
			MemPct:     memLevel,
			MemSizePct: msz.Mean,
			PCIeTxPct:  tx.Mean,
			PCIeRxPct:  rx.Mean,
		},
		MeanCycles:  clampF(runSec/180, 1, 48),
		SigmaActive: 1.35,
		SigmaIdle:   1.05,
		LevelJitter: 0, // exact mean reconstruction: no per-phase jitter
		SMBurst:     sm.Max >= 99,
		TxBurst:     tx.Max >= 99,
		RxBurst:     rx.Max >= 99,
	}, rng)
	p, err := NewProfile(phases, 0)
	if err != nil {
		// runSec is positive, and the active and idle budgets then sum to
		// it, so SynthesizePhases returns at least one positive phase.
		panic(err)
	}
	return p
}
