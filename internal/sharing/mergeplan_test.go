package sharing

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/workload"
)

// The merge plan is the queueing experiment of merge_test.go: no production
// path fuses jobs.

// MergePlan records how single-GPU jobs were fused into shared-GPU bundles
// for scheduling, so results can be attributed back to the original jobs.
type MergePlan struct {
	// Merged is the schedulable spec list: bundles plus pass-through jobs.
	Merged []workload.JobSpec
	// Partner maps an original job ID to the ID it shares a GPU with.
	Partner map[int64]int64
	// BundleOf maps an original job ID to the bundle spec's ID that carries
	// it (bundles reuse the earlier member's ID).
	BundleOf map[int64]int64
	// PairsFormed counts bundles.
	PairsFormed int
}

// MergeForColocation fuses temporally adjacent, non-contending single-GPU
// jobs into one schedulable bundle each, so the discrete-event scheduler
// needs one GPU where the exclusive policy needs two. This is how the
// paper's co-location opportunity becomes a queueing experiment: under
// contention, merged workloads wait measurably less on the same cluster.
//
// A bundle inherits the earlier member's ID and submit time, the pair's
// maximum remaining span (including interference dilation), the combined
// host request, and an element-wise-summed utilization profile. Pairing
// requires both submission adjacency (within adjacencySec) and phase-aware
// contention below the config threshold.
func MergeForColocation(specs []workload.JobSpec, cfg ColocationConfig, adjacencySec float64) MergePlan {
	plan := MergePlan{
		Partner:  map[int64]int64{},
		BundleOf: map[int64]int64{},
	}
	ordered := make([]int, 0, len(specs))
	for i := range specs {
		ordered = append(ordered, i)
	}
	sort.Slice(ordered, func(a, b int) bool { return specs[ordered[a]].SubmitSec < specs[ordered[b]].SubmitSec })

	used := make([]bool, len(specs))
	for oi, i := range ordered {
		if used[i] {
			continue
		}
		a := &specs[i]
		if a.NumGPUs != 1 || len(a.Profiles) != 1 {
			plan.Merged = append(plan.Merged, *a)
			used[i] = true
			continue
		}
		bestJ := -1
		var bestScore float64
		for oj := oi + 1; oj < len(ordered); oj++ {
			j := ordered[oj]
			if used[j] {
				continue
			}
			b := &specs[j]
			if b.SubmitSec-a.SubmitSec > adjacencySec {
				break
			}
			if b.NumGPUs != 1 || len(b.Profiles) != 1 {
				continue
			}
			e := estimatePair(a.Profiles[0], b.Profiles[0], cfg.GridPoints)
			if e.meanContention > cfg.MaxMeanContention {
				continue
			}
			score := e.meanContention + 0.5*e.activeOverlap
			if bestJ == -1 || score < bestScore {
				bestJ, bestScore = j, score
			}
		}
		if bestJ == -1 {
			plan.Merged = append(plan.Merged, *a)
			used[i] = true
			continue
		}
		b := &specs[bestJ]
		used[i], used[bestJ] = true, true
		plan.PairsFormed++
		plan.Partner[a.ID], plan.Partner[b.ID] = b.ID, a.ID
		plan.BundleOf[a.ID], plan.BundleOf[b.ID] = a.ID, a.ID

		e := estimatePair(a.Profiles[0], b.Profiles[0], cfg.GridPoints)
		slow := 1 + cfg.SlowdownAlpha*e.meanContention
		// The bundle holds the GPU from the earlier submit until the later
		// (dilated) member would finish, measured from the bundle's start.
		endA := a.RunSec * slow
		endB := (b.SubmitSec - a.SubmitSec) + b.RunSec*slow
		span := math.Max(endA, endB)
		bundle := workload.JobSpec{
			ID:          a.ID,
			User:        a.User,
			Category:    a.Category,
			Interface:   a.Interface,
			Exit:        a.Exit,
			SubmitSec:   a.SubmitSec,
			RunSec:      span,
			LimitSec:    math.Max(a.LimitSec, b.LimitSec+b.SubmitSec-a.SubmitSec),
			NumGPUs:     1,
			CoresPerGPU: a.CoresPerGPU + b.CoresPerGPU,
			MemGBPerGPU: a.MemGBPerGPU + b.MemGBPerGPU,
			Profiles:    []*workload.Profile{combineProfiles(a.Profiles[0], b.Profiles[0], span)},
		}
		plan.Merged = append(plan.Merged, bundle)
	}
	sort.Slice(plan.Merged, func(x, y int) bool { return plan.Merged[x].SubmitSec < plan.Merged[y].SubmitSec })
	return plan
}

// combineProfiles builds the bundle's observed utilization: the element-wise
// sum of both members' levels sampled on a fixed grid, clamped to capacity.
func combineProfiles(a, b *workload.Profile, spanSec float64) *workload.Profile {
	const segments = 64
	if spanSec <= 0 {
		spanSec = 1
	}
	seg := spanSec / segments
	phases := make([]workload.Phase, 0, segments)
	for k := 0; k < segments; k++ {
		t := (float64(k) + 0.5) * seg
		ua := a.LevelAt(t)
		ub := b.LevelAt(t)
		lvl := ua
		lvl.SMPct += ub.SMPct
		lvl.MemPct += ub.MemPct
		lvl.MemSizePct += ub.MemSizePct
		lvl.PCIeTxPct += ub.PCIeTxPct
		lvl.PCIeRxPct += ub.PCIeRxPct
		lvl.Clamp()
		active := lvl.SMPct > 1 || lvl.MemPct > 1
		phases = append(phases, workload.Phase{DurSec: seg, Active: active, Level: lvl})
	}
	p, err := workload.NewProfile(phases, 0)
	if err != nil {
		panic(fmt.Sprintf("sharing: combined profile invalid: %v", err))
	}
	return p
}
