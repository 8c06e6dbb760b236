package core

import (
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
)

// ArrivalResult characterizes the submission process: daily load, weekday
// structure, and elevated windows — the paper's §II observation that "usage
// of the system often increases closer to the deadlines of popular deep
// learning conferences".
type ArrivalResult struct {
	// DailyCounts[d] is the number of submissions on day d.
	DailyCounts []int
	// WeekdayMean and WeekendMean are mean submissions per day by day type.
	WeekdayMean, WeekendMean float64
	// SurgeWindows are maximal runs of consecutive days whose load exceeds
	// SurgeThreshold × the trace-wide daily median.
	SurgeWindows []SurgeWindow
	// SurgeThreshold is the detection multiplier used.
	SurgeThreshold float64
	// PeakDay is the busiest day index.
	PeakDay int
}

// SurgeWindow is one detected high-load stretch.
type SurgeWindow struct {
	StartDay, EndDay int     // inclusive day indices
	MeanLoadFactor   float64 // mean daily load over the window ÷ median daily load
}

// Arrivals computes the submission-process characterization over ALL jobs
// (the arrival pattern is a property of user behavior, not of the GPU
// filter). surgeThreshold <= 1 selects the default of 1.35.
func Arrivals(ds *trace.Dataset, surgeThreshold float64) ArrivalResult {
	if surgeThreshold <= 1 {
		surgeThreshold = 1.35
	}
	r := ArrivalResult{SurgeThreshold: surgeThreshold}
	days := int(math.Ceil(ds.DurationDays))
	if days < 1 || len(ds.Jobs) == 0 {
		return r
	}
	r.DailyCounts = make([]int, days)
	for i := range ds.Jobs {
		d := int(ds.Jobs[i].SubmitSec / 86400)
		if d < 0 {
			d = 0
		}
		if d >= days {
			d = days - 1
		}
		r.DailyCounts[d]++
	}
	var wk, we, wkDays, weDays float64
	counts := make([]float64, days)
	for d, c := range r.DailyCounts {
		counts[d] = float64(c)
		if d%7 >= 5 {
			we += float64(c)
			weDays++
		} else {
			wk += float64(c)
			wkDays++
		}
		if c > r.DailyCounts[r.PeakDay] {
			r.PeakDay = d
		}
	}
	if wkDays > 0 {
		r.WeekdayMean = wk / wkDays
	}
	if weDays > 0 {
		r.WeekendMean = we / weDays
	}
	median := stats.Median(counts)
	if median <= 0 {
		return r
	}
	// Smooth over a 3-day window before thresholding so single spiky days do
	// not fragment a surge.
	smooth := make([]float64, days)
	for d := range counts {
		var sum, n float64
		for k := d - 1; k <= d+1; k++ {
			if k >= 0 && k < days {
				sum += counts[k]
				n++
			}
		}
		smooth[d] = sum / n
	}
	inSurge := false
	var start int
	flush := func(end int) {
		if !inSurge {
			return
		}
		inSurge = false
		var sum float64
		for d := start; d <= end; d++ {
			sum += counts[d]
		}
		factor := sum / float64(end-start+1) / median
		// Smoothing can pull an ordinary neighbor day over the threshold;
		// only genuinely elevated windows are surges.
		if factor < 1.1 {
			return
		}
		r.SurgeWindows = append(r.SurgeWindows, SurgeWindow{
			StartDay:       start,
			EndDay:         end,
			MeanLoadFactor: factor,
		})
	}
	for d := 0; d < days; d++ {
		if smooth[d] > surgeThreshold*median {
			if !inSurge {
				inSurge = true
				start = d
			}
		} else {
			flush(d - 1)
		}
	}
	flush(days - 1)
	return r
}
