package core

import (
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
)

// LifecycleResult is Figs. 15 and 16: the life-cycle breakdown of jobs and
// GPU hours, category medians of run time, and per-category utilization box
// plots.
type LifecycleResult struct {
	// JobShare and HourShare index by trace.Category (Fig. 15a/b).
	JobShare  [trace.NumCategories]float64
	HourShare [trace.NumCategories]float64
	// MedianRunMin per category (§VI: mature 36 min, exploratory 62 min).
	MedianRunMin [trace.NumCategories]float64
	// Boxes[c][k] is the Fig. 16 box plot of category c for metric k
	// (0 = SM, 1 = memory bandwidth, 2 = memory size).
	Boxes [trace.NumCategories][3]stats.BoxStats
	Total int
}

// Lifecycle computes Figs. 15–16 from the per-category columns the
// projection fills as jobs are added: counts and GPU-hour sums for the
// shares, and each category's sorted runs for the medians and box plots.
func Lifecycle(c *trace.Columns) LifecycleResult {
	r := LifecycleResult{Total: c.GPUJobs}
	for cat := range c.ByCategory {
		g := &c.ByCategory[cat]
		if r.Total > 0 {
			r.JobShare[cat] = float64(g.RunMin.N()) / float64(r.Total)
		}
		if c.TotalGPUHours != 0 {
			r.HourShare[cat] = g.GPUHours / c.TotalGPUHours
		}
		r.MedianRunMin[cat] = g.RunMin.Stats().Quantile(0.5)
		for k, col := range g.Mean {
			r.Boxes[cat][k] = col.Stats().Box()
		}
	}
	return r
}

// UserMixRow is one user's life-cycle composition (one x-position of
// Fig. 17).
type UserMixRow struct {
	User     int
	JobFrac  [trace.NumCategories]float64 // Fig. 17a: share of the user's jobs
	HourFrac [trace.NumCategories]float64 // Fig. 17b: share of the user's GPU hours
	Jobs     int
	GPUHours float64
}

// UserMixResult is Fig. 17: per-user life-cycle mixes sorted by mature
// share, plus the quoted aggregate fractions.
type UserMixResult struct {
	// ByJobs is sorted ascending by mature job share (Fig. 17a's x-axis);
	// ByHours by mature hour share (Fig. 17b).
	ByJobs  []UserMixRow
	ByHours []UserMixRow
	// UsersUnder40PctMatureJobs: ">50 % of the users have <40 % mature jobs".
	UsersUnder40PctMatureJobs float64
	// UsersOver60PctNonMatureHours: "for more than 25 % of the users,
	// exploratory, development, and IDE jobs constitute over 60 % of all of
	// their GPU hours".
	UsersOver60PctNonMatureHours float64
}

// UserMix computes Fig. 17 from the per-user folds' life-cycle job counts
// and GPU-hour sums.
func UserMix(c *trace.Columns) UserMixResult {
	rows := make([]UserMixRow, len(c.UserFolds))
	for i := range c.UserFolds {
		u := &c.UserFolds[i]
		row := UserMixRow{User: u.User, Jobs: u.Jobs, GPUHours: u.GPUHours}
		for cat := range row.JobFrac {
			row.JobFrac[cat] = float64(u.CatJobs[cat]) / float64(row.Jobs)
			if row.GPUHours > 0 {
				row.HourFrac[cat] = u.CatGPUHours[cat] / row.GPUHours
			}
		}
		rows[i] = row
	}
	return finishUserMix(rows)
}

// finishUserMix sorts the per-user rows into the two Fig. 17 orderings and
// derives the aggregate fractions; the row-walking specification in the
// package's tests shares it.
func finishUserMix(rows []UserMixRow) UserMixResult {
	var r UserMixResult
	r.ByJobs = append([]UserMixRow(nil), rows...)
	sort.Slice(r.ByJobs, func(a, b int) bool {
		if r.ByJobs[a].JobFrac[trace.Mature] != r.ByJobs[b].JobFrac[trace.Mature] {
			return r.ByJobs[a].JobFrac[trace.Mature] < r.ByJobs[b].JobFrac[trace.Mature]
		}
		return r.ByJobs[a].User < r.ByJobs[b].User
	})
	r.ByHours = append([]UserMixRow(nil), rows...)
	sort.Slice(r.ByHours, func(a, b int) bool {
		if r.ByHours[a].HourFrac[trace.Mature] != r.ByHours[b].HourFrac[trace.Mature] {
			return r.ByHours[a].HourFrac[trace.Mature] < r.ByHours[b].HourFrac[trace.Mature]
		}
		return r.ByHours[a].User < r.ByHours[b].User
	})
	if len(rows) > 0 {
		var under40, over60 float64
		for _, row := range rows {
			if row.JobFrac[trace.Mature] < 0.40 {
				under40++
			}
			if 1-row.HourFrac[trace.Mature] > 0.60 {
				over60++
			}
		}
		n := float64(len(rows))
		r.UsersUnder40PctMatureJobs = under40 / n
		r.UsersOver60PctNonMatureHours = over60 / n
	}
	return r
}
