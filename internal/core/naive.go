package core

import (
	"math"
	"sort"

	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file preserves the pre-columnar figure implementations verbatim as an
// executable specification, mirroring internal/cluster/naive.go from the
// scheduler index PR: every analysis walks the row-oriented Dataset directly
// and re-derives its own slices. The columnar implementations in the sibling
// files must produce reports identical to these (see naive_equiv_test.go);
// none of this is on the hot path.

// naiveCharacterize is the serial row-walking Characterize.
func naiveCharacterize(ds *trace.Dataset) *Report {
	users := naiveAggregateUsers(ds)
	return &Report{
		Runtimes:      naiveRuntimes(ds),
		Waits:         naiveWaits(ds),
		Utilization:   naiveUtilization(ds),
		PCIe:          naivePCIe(ds),
		ByInterface:   naiveByInterface(ds),
		Phases:        naivePhases(ds),
		ActiveCoV:     naiveActiveVariability(ds),
		Bottlenecks:   naiveBottlenecks(ds),
		Power:         naivePower(ds),
		UserAverages:  UserAverages(users),
		UserCoV:       UserVariability(users),
		UserTrends:    UserTrends(users),
		GPUCounts:     naiveGPUCounts(ds),
		MultiGPU:      naiveMultiGPU(ds),
		Lifecycle:     naiveLifecycle(ds),
		UserMix:       naiveUserMix(ds),
		Concentration: naiveConcentration(ds),
		HostCPUUse:    naiveHostCPU(ds),
	}
}

func naiveRuntimes(ds *trace.Dataset) RuntimeResult {
	return RuntimeResult{
		GPU: NewCDFStat(trace.RunMinutes(ds.GPUJobs()), curvePoints),
		CPU: NewCDFStat(trace.RunMinutes(ds.CPUJobs()), curvePoints),
	}
}

func naiveWaits(ds *trace.Dataset) WaitResult {
	gpuJobs, cpuJobs := ds.GPUJobs(), ds.CPUJobs()
	var r WaitResult

	gpuPct := make([]float64, len(gpuJobs))
	var bySize [4][]float64
	var gpuUnderMin, gpuUnder2 float64
	for i, j := range gpuJobs {
		gpuPct[i] = j.WaitFraction()
		if j.WaitSec < 60 {
			gpuUnderMin++
		}
		if j.WaitFraction() < 2 {
			gpuUnder2++
		}
		c := trace.SizeClass(j.NumGPUs)
		bySize[c] = append(bySize[c], j.WaitSec)
	}
	cpuPct := make([]float64, len(cpuJobs))
	var cpuOverMin float64
	for i, j := range cpuJobs {
		cpuPct[i] = j.WaitFraction()
		if j.WaitSec > 60 {
			cpuOverMin++
		}
	}
	r.GPUWaitPct = NewCDFStat(gpuPct, curvePoints)
	r.CPUWaitPct = NewCDFStat(cpuPct, curvePoints)
	if n := float64(len(gpuJobs)); n > 0 {
		r.GPUWaitUnder1MinFrac = gpuUnderMin / n
		r.GPUWaitPctUnder2Frac = gpuUnder2 / n
	}
	if n := float64(len(cpuJobs)); n > 0 {
		r.CPUWaitOver1MinFrac = cpuOverMin / n
	}
	for c := range bySize {
		r.MedianWaitBySize[c] = stats.Median(bySize[c])
	}
	return r
}

func naiveUtilization(ds *trace.Dataset) UtilizationResult {
	jobs := ds.GPUJobs()
	sm := trace.MeanValues(jobs, metrics.SMUtil)
	mem := trace.MeanValues(jobs, metrics.MemUtil)
	msz := trace.MeanValues(jobs, metrics.MemSize)
	return UtilizationResult{
		SM:             NewCDFStat(sm, curvePoints),
		Mem:            NewCDFStat(mem, curvePoints),
		MemSize:        NewCDFStat(msz, curvePoints),
		SMOver50:       stats.FractionAbove(sm, 50),
		MemOver50:      stats.FractionAbove(mem, 50),
		SizeOver50:     stats.FractionAbove(msz, 50),
		NearZeroSMFrac: stats.FractionBelow(sm, 5),
	}
}

func naivePCIe(ds *trace.Dataset) PCIeResult {
	jobs := ds.GPUJobs()
	tx := trace.MeanValues(jobs, metrics.PCIeTx)
	rx := trace.MeanValues(jobs, metrics.PCIeRx)
	txE, rxE := stats.NewECDF(tx), stats.NewECDF(rx)
	return PCIeResult{
		Tx:          NewCDFStat(tx, curvePoints),
		Rx:          NewCDFStat(rx, curvePoints),
		TxUniformKS: txE.UniformityDistance(txE.Min(), txE.Max()),
		RxUniformKS: rxE.UniformityDistance(rxE.Min(), rxE.Max()),
	}
}

func naiveByInterface(ds *trace.Dataset) InterfaceResult {
	var r InterfaceResult
	groups := ds.ByInterface()
	total := len(ds.GPUJobs())
	for iface := trace.Interface(0); iface < trace.NumInterfaces; iface++ {
		jobs := groups[iface]
		if total > 0 {
			r.Share[iface] = float64(len(jobs)) / float64(total)
		}
		r.SM[iface] = NewCDFStat(trace.MeanValues(jobs, metrics.SMUtil), curvePoints)
		r.Mem[iface] = NewCDFStat(trace.MeanValues(jobs, metrics.MemUtil), curvePoints)
	}
	return r
}

// sortedSeriesIDs returns the monitored job ids in ascending order. The spec
// iterates maps in sorted-key order so its determinism is visible on the
// page (and to simlint's maporder analyzer) rather than resting on the
// downstream CDF constructors happening to sort.
func sortedSeriesIDs(ds *trace.Dataset) []int64 {
	ids := make([]int64, 0, len(ds.Series))
	for id := range ds.Series {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// sortedUsers returns byUser's keys in ascending order; see sortedSeriesIDs.
func sortedUsers(byUser map[int][]*trace.JobRecord) []int {
	users := make([]int, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Ints(users)
	return users
}

func naivePhases(ds *trace.Dataset) PhaseResult {
	var activePct, idleCoVs, actCoVs []float64
	for _, id := range sortedSeriesIDs(ds) {
		ts := ds.Series[id]
		iv := SegmentSeries(ts)
		if len(iv) == 0 {
			continue
		}
		var activeDur, totalDur float64
		var idleLens, actLens []float64
		for _, seg := range iv {
			totalDur += seg.DurSec
			if seg.Active {
				activeDur += seg.DurSec
				actLens = append(actLens, seg.DurSec)
			} else {
				idleLens = append(idleLens, seg.DurSec)
			}
		}
		activePct = append(activePct, activeDur/totalDur*100)
		if len(idleLens) >= 2 {
			if c := stats.CoV(idleLens); !isNaN(c) {
				idleCoVs = append(idleCoVs, c)
			}
		}
		if len(actLens) >= 2 {
			if c := stats.CoV(actLens); !isNaN(c) {
				actCoVs = append(actCoVs, c)
			}
		}
	}
	return PhaseResult{
		ActiveTimePct: NewCDFStat(activePct, curvePoints),
		IdleCoV:       NewCDFStat(idleCoVs, curvePoints),
		ActiveCoVLen:  NewCDFStat(actCoVs, curvePoints),
		JobsAnalyzed:  len(activePct),
	}
}

func naiveActiveVariability(ds *trace.Dataset) ActiveVariabilityResult {
	var smC, memC, mszC []float64
	for _, id := range sortedSeriesIDs(ds) {
		ts := ds.Series[id]
		var sm, mem, msz []float64
		for _, stream := range ts.PerGPU {
			for _, s := range stream {
				if s.Values[metrics.SMUtil] > activeSampleThresholdPct ||
					s.Values[metrics.MemUtil] > activeSampleThresholdPct {
					sm = append(sm, s.Values[metrics.SMUtil])
					mem = append(mem, s.Values[metrics.MemUtil])
					msz = append(msz, s.Values[metrics.MemSize])
				}
			}
		}
		if len(sm) < 2 {
			continue
		}
		if c := stats.CoV(sm); !isNaN(c) {
			smC = append(smC, c)
		}
		if c := stats.CoV(mem); !isNaN(c) {
			memC = append(memC, c)
		}
		if c := stats.CoV(msz); !isNaN(c) {
			mszC = append(mszC, c)
		}
	}
	return ActiveVariabilityResult{
		SMCoV:      NewCDFStat(smC, curvePoints),
		MemCoV:     NewCDFStat(memC, curvePoints),
		MemSizeCoV: NewCDFStat(mszC, curvePoints),
		Over23Frac: stats.FractionAbove(smC, 23),
	}
}

func naiveBottlenecks(ds *trace.Dataset) BottleneckResult {
	jobs := ds.GPUJobs()
	r := BottleneckResult{
		SingleFrac: map[metrics.Metric]float64{},
		PairFrac:   map[[2]metrics.Metric]float64{},
		Jobs:       len(jobs),
	}
	if len(jobs) == 0 {
		return r
	}
	hit := func(j *trace.JobRecord, m metrics.Metric) bool {
		if len(j.PerGPU) > 0 {
			for _, g := range j.PerGPU {
				if g[m].Max >= bottleneckThresholdPct {
					return true
				}
			}
			return false
		}
		return j.GPU[m].Max >= bottleneckThresholdPct
	}
	var anyTwo float64
	for _, j := range jobs {
		count := 0
		var hits []metrics.Metric
		for _, m := range metrics.BottleneckMetrics {
			if hit(j, m) {
				r.SingleFrac[m]++
				hits = append(hits, m)
				count++
			}
		}
		for a := 0; a < len(hits); a++ {
			for b := a + 1; b < len(hits); b++ {
				key := [2]metrics.Metric{hits[a], hits[b]}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				r.PairFrac[key]++
			}
		}
		if count >= 2 {
			anyTwo++
		}
	}
	n := float64(len(jobs))
	for m := range r.SingleFrac {
		r.SingleFrac[m] /= n
	}
	for k := range r.PairFrac {
		r.PairFrac[k] /= n
	}
	r.AnyTwoFrac = anyTwo / n
	return r
}

func naivePower(ds *trace.Dataset) PowerResult {
	jobs := ds.GPUJobs()
	return PowerResult{
		Avg:      NewCDFStat(trace.MeanValues(jobs, metrics.Power), curvePoints),
		Max:      NewCDFStat(trace.MaxValues(jobs, metrics.Power), curvePoints),
		TDPWatts: 300,
	}
}

func naiveGPUCounts(ds *trace.Dataset) GPUCountResult {
	jobs := ds.GPUJobs()
	r := GPUCountResult{FracByCount: map[int]float64{}}
	if len(jobs) == 0 {
		return r
	}
	var hours [4]float64
	var total, multiHours float64
	for _, j := range jobs {
		r.FracByCount[j.NumGPUs]++
		h := j.GPUHours()
		hours[trace.SizeClass(j.NumGPUs)] += h
		total += h
		switch {
		case j.NumGPUs == 1:
			r.SingleGPUFrac++
		default:
			r.MultiGPUFrac++
			multiHours += h
		}
		if j.NumGPUs > 2 {
			r.Over2Frac++
		}
		if j.NumGPUs >= 9 {
			r.NinePlusFrac++
		}
	}
	n := float64(len(jobs))
	for k := range r.FracByCount {
		r.FracByCount[k] /= n
	}
	r.SingleGPUFrac /= n
	r.MultiGPUFrac /= n
	r.Over2Frac /= n
	r.NinePlusFrac /= n
	if total > 0 {
		for c := range hours {
			r.HourShareBySizeClass[c] = hours[c] / total
		}
		r.MultiGPUHourShare = multiHours / total
	}
	return r
}

func naiveMultiGPU(ds *trace.Dataset) MultiGPUResult {
	var r MultiGPUResult
	jobs := ds.MultiGPUJobs()
	var all, active [3][]float64
	var withIdle, halfIdle, considered float64
	for _, j := range jobs {
		if len(j.PerGPU) < 2 {
			continue
		}
		considered++
		idle := 0
		for _, g := range j.PerGPU {
			if g[metrics.SMUtil].Mean < idleGPUMeanSM && g[metrics.MemUtil].Mean < idleGPUMeanSM {
				idle++
			}
		}
		if idle > 0 {
			withIdle++
		}
		if idle*2 >= len(j.PerGPU) {
			halfIdle++
		}
		for mi, m := range multiGPUMetrics {
			var vals, act []float64
			for _, g := range j.PerGPU {
				vals = append(vals, g[m].Mean)
				if g[metrics.SMUtil].Mean >= idleGPUMeanSM || g[metrics.MemUtil].Mean >= idleGPUMeanSM {
					act = append(act, g[m].Mean)
				}
			}
			if cov := stats.CoV(vals); !isNaN(cov) {
				all[mi] = append(all[mi], cov)
			}
			if len(act) >= 2 {
				if cov := stats.CoV(act); !isNaN(cov) {
					active[mi] = append(active[mi], cov)
				}
			} else if len(act) == 1 {
				// One active GPU: no cross-GPU variability among active GPUs.
				active[mi] = append(active[mi], 0)
			}
		}
	}
	for mi := range multiGPUMetrics {
		r.CoVAllGPUs[mi] = NewCDFStat(all[mi], curvePoints)
		r.CoVActiveGPUs[mi] = NewCDFStat(active[mi], curvePoints)
	}
	if considered > 0 {
		r.IdleGPUJobFrac = withIdle / considered
		r.HalfIdleJobFrac = halfIdle / considered
	} else if len(jobs) > 0 {
		// Multi-GPU jobs exist but carry no per-GPU digests (the CSV path
		// flattens them): the idle-GPU question is unanswerable, not zero.
		r.IdleGPUJobFrac = math.NaN()
		r.HalfIdleJobFrac = math.NaN()
	}
	return r
}

func naiveLifecycle(ds *trace.Dataset) LifecycleResult {
	jobs := ds.GPUJobs()
	b := lifecycle.Account(jobs)
	groups := lifecycle.GroupByCategory(jobs)
	var r LifecycleResult
	r.Total = b.Total
	for c := trace.Category(0); c < trace.NumCategories; c++ {
		r.JobShare[c] = b.JobShare(c)
		r.HourShare[c] = b.HourShare(c)
		r.MedianRunMin[c] = stats.Median(trace.RunMinutes(groups[c]))
		for mi, m := range multiGPUMetrics {
			r.Boxes[c][mi] = stats.Box(trace.MeanValues(groups[c], m))
		}
	}
	return r
}

func naiveUserMix(ds *trace.Dataset) UserMixResult {
	byUser := ds.ByUser()
	rows := make([]UserMixRow, 0, len(byUser))
	for _, u := range sortedUsers(byUser) {
		jobs := byUser[u]
		row := UserMixRow{User: u, Jobs: len(jobs)}
		var hours [trace.NumCategories]float64
		var counts [trace.NumCategories]float64
		for _, j := range jobs {
			c := lifecycle.Classify(j)
			counts[c]++
			h := j.GPUHours()
			hours[c] += h
			row.GPUHours += h
		}
		for c := trace.Category(0); c < trace.NumCategories; c++ {
			row.JobFrac[c] = counts[c] / float64(row.Jobs)
			if row.GPUHours > 0 {
				row.HourFrac[c] = hours[c] / row.GPUHours
			}
		}
		rows = append(rows, row)
	}
	return finishUserMix(rows)
}

func naiveConcentration(ds *trace.Dataset) ConcentrationResult {
	byUser := ds.ByUser()
	var counts []float64
	maxGPUs := map[int]int{}
	for _, u := range sortedUsers(byUser) {
		jobs := byUser[u]
		counts = append(counts, float64(len(jobs)))
		for _, j := range jobs {
			if j.NumGPUs > maxGPUs[u] {
				maxGPUs[u] = j.NumGPUs
			}
		}
	}
	conc := stats.NewConcentration(counts)
	r := ConcentrationResult{
		Users:          len(counts),
		MedianUserJobs: stats.Median(counts),
		Top5PctShare:   conc.TopShare(0.05),
		Top20PctShare:  conc.TopShare(0.20),
		Gini:           conc.Gini(),
		Lorenz:         conc.LorenzCurve(),
	}
	if len(counts) == 0 {
		return r
	}
	var m2, m3, m9 float64
	for _, m := range maxGPUs {
		if m >= 2 {
			m2++
		}
		if m >= 3 {
			m3++
		}
		if m >= 9 {
			m9++
		}
	}
	n := float64(len(counts))
	r.UsersWithMultiFrac = m2 / n
	r.UsersWith3Frac = m3 / n
	r.UsersWith9Frac = m9 / n
	return r
}

func naiveHostCPU(ds *trace.Dataset) HostCPUResult {
	var gpuVals, cpuVals []float64
	for i := range ds.Jobs {
		j := &ds.Jobs[i]
		if j.IsGPU() {
			if j.RunSec >= trace.MinGPUJobRunSec {
				gpuVals = append(gpuVals, j.HostCPU.Mean)
			}
		} else {
			cpuVals = append(cpuVals, j.HostCPU.Mean)
		}
	}
	return HostCPUResult{
		GPUJobs:            NewCDFStat(gpuVals, curvePoints),
		CPUJobs:            NewCDFStat(cpuVals, curvePoints),
		GPUJobsUnder50Frac: stats.FractionBelow(gpuVals, 50),
	}
}

func naiveAggregateUsers(ds *trace.Dataset) []UserStats {
	byUser := ds.ByUser()
	users := make([]int, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Ints(users)
	out := make([]UserStats, 0, len(users))
	for _, u := range users {
		jobs := byUser[u]
		st := UserStats{User: u, Jobs: len(jobs)}
		var runs, sm, mem, msz []float64
		for _, j := range jobs {
			st.GPUHours += j.GPUHours()
			runs = append(runs, j.RunSec/60)
			sm = append(sm, j.GPU[metrics.SMUtil].Mean)
			mem = append(mem, j.GPU[metrics.MemUtil].Mean)
			msz = append(msz, j.GPU[metrics.MemSize].Mean)
		}
		st.AvgRunMin = stats.Mean(runs)
		st.RunCoVPct = stats.CoV(runs)
		st.AvgSM, st.AvgMem, st.AvgMemSize = stats.Mean(sm), stats.Mean(mem), stats.Mean(msz)
		st.CoVSM, st.CoVMem, st.CoVMemSize = stats.CoV(sm), stats.CoV(mem), stats.CoV(msz)
		out = append(out, st)
	}
	return out
}
