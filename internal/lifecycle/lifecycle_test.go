package lifecycle

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func rec(exit trace.ExitStatus, iface trace.Interface, gpus int, runSec float64) *trace.JobRecord {
	return &trace.JobRecord{Exit: exit, Interface: iface, NumGPUs: gpus, RunSec: runSec}
}

func TestClassifyMapping(t *testing.T) {
	cases := []struct {
		exit  trace.ExitStatus
		iface trace.Interface
		want  trace.Category
	}{
		{trace.ExitSuccess, trace.Other, trace.Mature},
		{trace.ExitSuccess, trace.Interactive, trace.Mature},
		{trace.ExitCancelled, trace.Batch, trace.Exploratory},
		{trace.ExitCancelled, trace.Interactive, trace.Exploratory},
		{trace.ExitTimeout, trace.Interactive, trace.IDE},
		{trace.ExitTimeout, trace.Batch, trace.Development},
		{trace.ExitTimeout, trace.Other, trace.Development},
		{trace.ExitFailed, trace.Other, trace.Development},
		{trace.ExitFailed, trace.MapReduce, trace.Development},
	}
	for _, c := range cases {
		if got := Classify(rec(c.exit, c.iface, 1, 60)); got != c.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", c.exit, c.iface, got, c.want)
		}
	}
}

// specClassify is a verbatim transcription of the paper's §VI prose mapping
// (the pre-table switch): mature jobs complete with a zero exit code,
// exploratory jobs are user-cancelled, IDE jobs are interactive sessions that
// ride their limit into a timeout, and development jobs crash — interactively
// or not — or time out non-interactively. The exhaustiveness test checks the
// decision table against this spec cell by cell.
func specClassify(exit trace.ExitStatus, iface trace.Interface) trace.Category {
	switch exit {
	case trace.ExitSuccess:
		return trace.Mature
	case trace.ExitCancelled:
		return trace.Exploratory
	case trace.ExitTimeout:
		if iface == trace.Interactive {
			return trace.IDE
		}
		return trace.Development
	default: // ExitFailed and anything unknown: code still under debug
		return trace.Development
	}
}

// TestClassifyExhaustive sweeps every in-range (ExitStatus × Interface) pair:
// the table must agree with the §VI spec everywhere — in particular,
// interactive ExitFailed stays Development (an interactive session whose code
// crashed is under debug; only riding the limit into a timeout marks an IDE
// session), so no golden figure moves. It also probes out-of-range values on
// both axes, which must behave exactly as the original switch did.
func TestClassifyExhaustive(t *testing.T) {
	for exit := trace.ExitStatus(0); exit < trace.NumExitStatuses; exit++ {
		for iface := trace.Interface(0); iface < trace.NumInterfaces; iface++ {
			got := ClassifyParts(exit, iface)
			if want := specClassify(exit, iface); got != want {
				t.Errorf("ClassifyParts(%v, %v) = %v, want %v (paper §VI)", exit, iface, got, want)
			}
			if got < 0 || got >= trace.NumCategories {
				t.Errorf("ClassifyParts(%v, %v) = %v out of range", exit, iface, got)
			}
			if byRec := Classify(rec(exit, iface, 1, 60)); byRec != got {
				t.Errorf("Classify record path diverges from ClassifyParts at (%v, %v): %v vs %v",
					exit, iface, byRec, got)
			}
		}
	}
	// The §VI pin the issue asks about by name.
	if got := ClassifyParts(trace.ExitFailed, trace.Interactive); got != trace.Development {
		t.Errorf("interactive ExitFailed = %v, want Development", got)
	}
	// Out-of-range probes: unknown exit is Development whatever the
	// interface; unknown interface only matters for the timeout row.
	for _, iface := range []trace.Interface{-1, trace.NumInterfaces, 99} {
		if got := ClassifyParts(trace.ExitSuccess, iface); got != trace.Mature {
			t.Errorf("success with out-of-range interface %d = %v, want Mature", iface, got)
		}
		if got := ClassifyParts(trace.ExitTimeout, iface); got != trace.Development {
			t.Errorf("timeout with out-of-range interface %d = %v, want Development", iface, got)
		}
	}
	for _, exit := range []trace.ExitStatus{-1, trace.NumExitStatuses, 99} {
		for iface := trace.Interface(0); iface < trace.NumInterfaces; iface++ {
			if got := ClassifyParts(exit, iface); got != trace.Development {
				t.Errorf("out-of-range exit %d with %v = %v, want Development", exit, iface, got)
			}
		}
	}
}

// Property: the classifier is total — any combination yields a valid
// category.
func TestClassifyTotalProperty(t *testing.T) {
	f := func(exit uint8, iface uint8) bool {
		j := rec(trace.ExitStatus(exit%8), trace.Interface(iface%8), 1, 1)
		c := Classify(j)
		return c >= 0 && c < trace.NumCategories
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAccount(t *testing.T) {
	jobs := []*trace.JobRecord{
		rec(trace.ExitSuccess, trace.Other, 1, 3600),        // mature, 1 GPUh
		rec(trace.ExitSuccess, trace.Other, 2, 3600),        // mature, 2 GPUh
		rec(trace.ExitCancelled, trace.Other, 1, 7200),      // exploratory, 2 GPUh
		rec(trace.ExitTimeout, trace.Interactive, 1, 43200), // IDE, 12 GPUh
		rec(trace.ExitFailed, trace.Batch, 1, 1800),         // development, 0.5 GPUh
	}
	b := Account(jobs)
	if b.Total != 5 {
		t.Fatalf("total = %d", b.Total)
	}
	if b.Jobs[trace.Mature] != 2 || b.Jobs[trace.IDE] != 1 {
		t.Fatalf("jobs = %v", b.Jobs)
	}
	if b.JobShare(trace.Mature) != 0.4 {
		t.Fatalf("mature share = %v", b.JobShare(trace.Mature))
	}
	wantTotal := 1.0 + 2 + 2 + 12 + 0.5
	if b.TotalGPUHours != wantTotal {
		t.Fatalf("total hours = %v", b.TotalGPUHours)
	}
	if got := b.HourShare(trace.IDE); got != 12/wantTotal {
		t.Fatalf("IDE hour share = %v", got)
	}
}

func TestAccountEmpty(t *testing.T) {
	b := Account(nil)
	if b.JobShare(trace.Mature) != 0 || b.HourShare(trace.IDE) != 0 {
		t.Fatal("empty breakdown shares not zero")
	}
}

func TestGroupByCategory(t *testing.T) {
	jobs := []*trace.JobRecord{
		rec(trace.ExitSuccess, trace.Other, 1, 60),
		rec(trace.ExitFailed, trace.Other, 1, 60),
		rec(trace.ExitFailed, trace.Batch, 1, 60),
	}
	g := GroupByCategory(jobs)
	if len(g[trace.Mature]) != 1 || len(g[trace.Development]) != 2 {
		t.Fatalf("groups: mature=%d dev=%d", len(g[trace.Mature]), len(g[trace.Development]))
	}
}

// Property: Account conserves jobs and hours across categories.
func TestAccountConservationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var jobs []*trace.JobRecord
		for _, v := range raw {
			jobs = append(jobs, rec(trace.ExitStatus(v%4), trace.Interface(v/4%4), int(v%3)+1, float64(v)*10))
		}
		b := Account(jobs)
		if b.Total != len(jobs) {
			return false
		}
		sumJobs := 0
		var sumHours float64
		for c := trace.Category(0); c < trace.NumCategories; c++ {
			sumJobs += b.Jobs[c]
			sumHours += b.GPUHours[c]
		}
		return sumJobs == b.Total && sumHours-b.TotalGPUHours < 1e-9 && b.TotalGPUHours-sumHours < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Breakdown is the per-category tally of a job population (Fig. 15), the
// row-walking reference the projection's per-category counters replace.
type Breakdown struct {
	Jobs          [trace.NumCategories]int
	GPUHours      [trace.NumCategories]float64
	Total         int
	TotalGPUHours float64
}

// Account classifies every job and accumulates counts and GPU hours.
func Account(jobs []*trace.JobRecord) Breakdown {
	var b Breakdown
	for _, j := range jobs {
		c := Classify(j)
		b.Jobs[c]++
		h := j.GPUHours()
		b.GPUHours[c] += h
		b.Total++
		b.TotalGPUHours += h
	}
	return b
}

// JobShare returns category c's fraction of jobs, or 0 for an empty
// population.
func (b Breakdown) JobShare(c trace.Category) float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Jobs[c]) / float64(b.Total)
}

// HourShare returns category c's fraction of GPU hours.
func (b Breakdown) HourShare(c trace.Category) float64 {
	if b.TotalGPUHours == 0 {
		return 0
	}
	return b.GPUHours[c] / b.TotalGPUHours
}

// GroupByCategory splits a job population by classified category.
func GroupByCategory(jobs []*trace.JobRecord) [trace.NumCategories][]*trace.JobRecord {
	var out [trace.NumCategories][]*trace.JobRecord
	for _, j := range jobs {
		c := Classify(j)
		out[c] = append(out[c], j)
	}
	return out
}
