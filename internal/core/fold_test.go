package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// foldDataset draws a random job sequence for the per-user and per-GPU-count
// folds. Besides users with many jobs it always has users with a single
// job (every CoV is 0) and users whose utilization means are all zero
// (those CoVs are NaN), plus CPU jobs and GPU jobs too short to join the
// analysis population.
func foldDataset(seed int64, n int) *trace.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := trace.NewDataset(30)
	const manyUsers = 9
	singles := []int{100, 101, 102}
	zeros := map[int]bool{7: true, 8: true, 103: true}
	gpuCounts := []int{1, 1, 1, 2, 3, 4, 8, 9, 16}
	add := func(user int) {
		j := trace.JobRecord{
			JobID:     int64(len(ds.Jobs) + 1),
			User:      user,
			Interface: trace.Interface(rng.Intn(int(trace.NumInterfaces))),
			Exit:      trace.ExitStatus(rng.Intn(int(trace.NumExitStatuses))),
			SubmitSec: float64(len(ds.Jobs)) * 60,
			WaitSec:   rng.Float64() * 600,
			RunSec:    trace.MinGPUJobRunSec + rng.ExpFloat64()*3600,
			LimitSec:  86400,
		}
		switch r := rng.Intn(10); {
		case r == 0:
			j.Cores, j.MemGB = 1+rng.Intn(40), 4
			ds.Add(j)
			return
		case r == 1:
			j.RunSec = rng.Float64() * trace.MinGPUJobRunSec
		}
		j.NumGPUs = gpuCounts[rng.Intn(len(gpuCounts))]
		if !zeros[user] {
			for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
				mean := rng.Float64() * 100
				j.GPU[m] = metrics.SummaryRecord{Min: mean / 2, Mean: mean, Max: mean * 1.5}
			}
		}
		ds.Add(j)
	}
	for i := 0; i < n; i++ {
		add(rng.Intn(manyUsers))
	}
	for _, u := range singles {
		add(u)
	}
	add(103) // a single job whose means are zero
	rng.Shuffle(len(ds.Jobs), func(a, b int) { ds.Jobs[a], ds.Jobs[b] = ds.Jobs[b], ds.Jobs[a] })
	return ds
}

// checkFoldFigures holds the fold-reading figures over c to their
// row-walking specifications over ds.
func checkFoldFigures(t *testing.T, label string, ds *trace.Dataset, c *trace.Columns) {
	t.Helper()
	check := func(name string, want, got any) {
		t.Helper()
		if ws, gs := fmt.Sprintf("%v", want), fmt.Sprintf("%v", got); ws != gs {
			t.Errorf("%s: %s differs\n want %.400s\n  got %.400s", label, name, ws, gs)
		}
	}
	check("AggregateUsers", naiveAggregateUsers(ds), AggregateUsers(c))
	check("UserMix", naiveUserMix(ds), UserMix(c))
	check("GPUCounts", naiveGPUCounts(ds), GPUCounts(c))
	check("Concentration", naiveConcentration(ds), Concentration(c))
}

// TestFoldFiguresMatchNaive checks the fold-reading figures bit for bit
// against their row-walking specifications: on BuildColumns, on SegStore
// snapshots at every prefix of a batched append under tiny, small and
// default segment sizes with compaction, and on a restored store before and
// after it appends more.
func TestFoldFiguresMatchNaive(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ds := foldDataset(seed, 400)
		singles, zeros := 0, 0
		for _, u := range naiveAggregateUsers(ds) {
			if u.Jobs == 1 {
				singles++
			}
			if isNaN(u.CoVSM) {
				zeros++
			}
		}
		if singles == 0 || zeros == 0 {
			t.Fatalf("seed %d: dataset has %d single-job users and %d with NaN CoV; want both", seed, singles, zeros)
		}
		checkFoldFigures(t, fmt.Sprintf("seed=%d/BuildColumns", seed), ds, trace.BuildColumns(ds))

		prefix := func(n int) *trace.Dataset {
			return &trace.Dataset{Jobs: ds.Jobs[:n], DurationDays: ds.DurationDays}
		}
		for _, segJobs := range []int{1, 7, 4096} {
			st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: segJobs, MaxSegments: 3})
			for i := 0; i < len(ds.Jobs); {
				end := min(len(ds.Jobs), i+1+int(seed)*37)
				st.AppendBatch(ds.Jobs[i:end])
				i = end
				checkFoldFigures(t, fmt.Sprintf("seed=%d/segment=%d/jobs=%d", seed, segJobs, i), prefix(i), st.Snapshot().Cols)
			}
		}

		half := len(ds.Jobs) / 2
		st := trace.NewSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 7, MaxSegments: 3})
		st.AppendBatch(ds.Jobs[:half])
		restored, err := trace.RestoreSegStore(trace.SegConfig{DurationDays: ds.DurationDays, SegmentJobs: 7, MaxSegments: 3}, st.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		checkFoldFigures(t, fmt.Sprintf("seed=%d/restored", seed), prefix(half), restored.Snapshot().Cols)
		restored.AppendBatch(ds.Jobs[half:])
		checkFoldFigures(t, fmt.Sprintf("seed=%d/restored+appended", seed), ds, restored.Snapshot().Cols)
	}
}

// foldStore appends n jobs drawn round-robin from one fixed set of users
// and GPU counts, so every user and every GPU count appears at any n of at
// least a few hundred.
func foldStore(n int) *trace.SegStore {
	const users = 40
	gpuCounts := []int{1, 2, 3, 4, 8, 16}
	st := trace.NewSegStore(trace.SegConfig{DurationDays: 30})
	jobs := make([]trace.JobRecord, n)
	for i := range jobs {
		j := &jobs[i]
		j.JobID = int64(i + 1)
		j.User = i % users
		j.NumGPUs = gpuCounts[(i/users)%len(gpuCounts)]
		j.Exit = trace.ExitStatus(i % int(trace.NumExitStatuses))
		j.RunSec = trace.MinGPUJobRunSec + float64(i%97)*60
		j.LimitSec = 86400
		for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
			j.GPU[m].Mean = float64((i*7 + int(m)) % 100)
		}
	}
	st.AppendBatch(jobs)
	return st
}

// TestFoldFiguresAllocsIndependentOfJobs guards the folds' O(users) cost:
// the fold-reading figures allocate the same on a 5k-job store as on a
// 50k-job store over the same users and GPU counts. A figure that gathers
// its users' job values again, as AggregateUsers did before the folds (33
// allocations at 5k jobs, 49 at 50k), allocates with the job count and
// fails; a walk that allocates nothing does not show here.
func TestFoldFiguresAllocsIndependentOfJobs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	small, large := foldStore(5_000).Snapshot().Cols, foldStore(50_000).Snapshot().Cols
	for _, f := range []struct {
		name string
		run  func(c *trace.Columns)
	}{
		{"AggregateUsers", func(c *trace.Columns) { AggregateUsers(c) }},
		{"UserMix", func(c *trace.Columns) { UserMix(c) }},
		{"GPUCounts", func(c *trace.Columns) { GPUCounts(c) }},
		{"Concentration", func(c *trace.Columns) { Concentration(c) }},
	} {
		a := testing.AllocsPerRun(20, func() { f.run(small) })
		b := testing.AllocsPerRun(20, func() { f.run(large) })
		if a != b {
			t.Errorf("%s allocates %.0f objects at 5k jobs but %.0f at 50k", f.name, a, b)
		}
		t.Logf("%s: %.0f allocs at 5k and 50k jobs", f.name, b)
	}
}
