package core

import (
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func TestArrivalsDetectsDeadlineSurges(t *testing.T) {
	ds, _ := testReport(t)
	a := Arrivals(ds, 0)
	if len(a.DailyCounts) != 125 {
		t.Fatalf("daily counts cover %d days", len(a.DailyCounts))
	}
	// Weekday load exceeds weekend load (calibrated factor 0.55).
	if a.WeekdayMean <= a.WeekendMean {
		t.Fatalf("weekday %v <= weekend %v", a.WeekdayMean, a.WeekendMean)
	}
	// The generator injects surges before deadline days 45 and 105; at
	// least one detected window must overlap each pre-deadline stretch.
	overlaps := func(lo, hi int) bool {
		for _, w := range a.SurgeWindows {
			if w.EndDay >= lo && w.StartDay <= hi {
				return true
			}
		}
		return false
	}
	if !overlaps(35, 45) {
		t.Errorf("no surge detected before deadline day 45: %+v", a.SurgeWindows)
	}
	if !overlaps(95, 105) {
		t.Errorf("no surge detected before deadline day 105: %+v", a.SurgeWindows)
	}
	for _, w := range a.SurgeWindows {
		if w.MeanLoadFactor < 1.1 {
			t.Errorf("sub-threshold window reported: %+v", w)
		}
		if w.Days() < 1 {
			t.Errorf("empty window: %+v", w)
		}
	}
}

func TestArrivalsNoFalseSurgesOnFlatLoad(t *testing.T) {
	ds := trace.NewDataset(30)
	id := int64(1)
	for d := 0; d < 30; d++ {
		for k := 0; k < 10; k++ {
			ds.Add(trace.JobRecord{JobID: id, SubmitSec: float64(d)*86400 + float64(k)*1000, RunSec: 60, NumGPUs: 1})
			id++
		}
	}
	a := Arrivals(ds, 0)
	if len(a.SurgeWindows) != 0 {
		t.Fatalf("flat load produced surges: %+v", a.SurgeWindows)
	}
	if math.Abs(a.WeekdayMean-10) > 1e-9 || math.Abs(a.WeekendMean-10) > 1e-9 {
		t.Fatalf("flat means: %v / %v", a.WeekdayMean, a.WeekendMean)
	}
}

func TestArrivalsEmpty(t *testing.T) {
	a := Arrivals(trace.NewDataset(0), 0)
	if len(a.DailyCounts) != 0 || len(a.SurgeWindows) != 0 {
		t.Fatalf("empty dataset: %+v", a)
	}
}

func TestComparePaperAllExtractorsRun(t *testing.T) {
	_, r := testReport(t)
	comps := ComparePaper(r)
	if len(comps) < 40 {
		t.Fatalf("only %d targets", len(comps))
	}
	inBand := 0
	for _, c := range comps {
		if math.IsNaN(c.Measured) {
			t.Errorf("%s / %s measured NaN", c.Figure, c.Quantity)
		}
		if c.BandLo > c.Paper || c.Paper > c.BandHi {
			// Bands are shape-tolerances around the paper value except where
			// EXPERIMENTS.md documents a known deviation (p75, Fig10 run).
			if c.Quantity != "GPU run p75 (min)" && c.Quantity != "user avg run median (min)" {
				t.Errorf("%s / %s: paper value %v outside its own band [%v, %v]",
					c.Figure, c.Quantity, c.Paper, c.BandLo, c.BandHi)
			}
		}
		if c.InBand {
			inBand++
		}
	}
	// The reproduction contract: at least 90% of targets in band.
	if frac := float64(inBand) / float64(len(comps)); frac < 0.9 {
		t.Errorf("only %.0f%% of paper targets in band", frac*100)
	}
	t.Logf("%d/%d paper targets in band", inBand, len(comps))
}

func TestPaperTargetsOnGeneratedDefaults(t *testing.T) {
	// A different seed at a different scale must still satisfy the contract
	// (guards against calibrating to one lucky seed).
	cfg := workload.ScaledConfig(0.08)
	cfg.Seed = 99
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := Characterize(g.BuildDataset(g.GenerateSpecs()).Columns(), 0)
	comps := ComparePaper(rep)
	inBand := 0
	for _, c := range comps {
		if c.InBand {
			inBand++
		}
	}
	if frac := float64(inBand) / float64(len(comps)); frac < 0.85 {
		for _, c := range comps {
			if !c.InBand {
				t.Logf("MISS %s / %s: %v not in [%v, %v]", c.Figure, c.Quantity, c.Measured, c.BandLo, c.BandHi)
			}
		}
		t.Errorf("seed 99: only %.0f%% of targets in band", frac*100)
	}
}

// Days returns the window length in days.
func (w SurgeWindow) Days() int { return w.EndDay - w.StartDay + 1 }
