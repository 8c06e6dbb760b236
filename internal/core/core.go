// Package core is the paper's primary contribution rebuilt as a library:
// the characterization suite that turns the joined job/GPU dataset into
// every figure of the evaluation (Figs. 3–17) plus the headline text
// statistics. Each figure has a dedicated result type holding exactly the
// quantities the paper reports, so EXPERIMENTS.md can be generated by
// diffing fields against the published numbers.
//
// Every figure is one function of the dataset's columnar projection,
// Xxx(c *trace.Columns): pass ds.Columns() for a batch dataset or a
// trace.SegView's Cols for a streaming snapshot. Characterize fans the
// independent figures across a bounded worker pool, and CharacterizeSeg is
// the same suite over a snapshot's Cols. Arrivals is the one exception,
// taking the Dataset because it needs every job's submit time.
//
// Figures that sort or count groups of jobs — Fig. 5 by interface
// (Columns.IfaceMean), Figs. 7b/8 (Columns.Bottlenecks), Fig. 14
// (Columns.MultiGPU) and Figs. 15–16 by life-cycle category
// (Columns.ByCategory) — read columns and counters the projection fills as
// each job is added. The per-user analyses (§IV, Figs. 10–12 and 17) read
// one fold per user (Columns.UserFolds) and Fig. 13 a fold per GPU count
// (Columns.GPUCounts), so they cost O(users), not O(jobs). A live query
// therefore costs a tail sort plus a selection per statistic, not a re-sort
// or a walk of the population, and no figure reads a job record. The
// pre-columnar row-walking implementations are preserved in the package's
// tests (naive_test.go) as the executable specification the columnar
// figures are tested against.
package core

import (
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Report bundles every figure's results for one dataset.
type Report struct {
	Runtimes      RuntimeResult           // Fig. 3a
	Waits         WaitResult              // Fig. 3b (+ §V waits by size)
	Utilization   UtilizationResult       // Fig. 4a
	PCIe          PCIeResult              // Fig. 4b
	ByInterface   InterfaceResult         // Fig. 5
	Phases        PhaseResult             // Fig. 6a/6b
	ActiveCoV     ActiveVariabilityResult // Fig. 7a
	Bottlenecks   BottleneckResult        // Fig. 7b, 8a, 8b
	Power         PowerResult             // Fig. 9a
	UserAverages  UserAverageResult       // Fig. 10
	UserCoV       UserVariabilityResult   // Fig. 11
	UserTrends    UserTrendResult         // Fig. 12
	GPUCounts     GPUCountResult          // Fig. 13
	MultiGPU      MultiGPUResult          // Fig. 14
	Lifecycle     LifecycleResult         // Fig. 15, 16
	UserMix       UserMixResult           // Fig. 17
	Concentration ConcentrationResult     // §IV text
	HostCPUUse    HostCPUResult           // §III co-location rationale
}

// CDFStat summarizes one empirical distribution as the paper reports them:
// quartiles plus the curve itself for rendering.
type CDFStat struct {
	N             int
	P25, P50, P75 float64
	Min, Max      float64
	Curve         []stats.Point
}

// NewCDFStat digests xs. maxPoints bounds the rendered curve.
func NewCDFStat(xs []float64, maxPoints int) CDFStat {
	e := stats.NewECDF(xs)
	return CDFStat{
		N:   e.N(),
		P25: e.Quantile(0.25), P50: e.Quantile(0.5), P75: e.Quantile(0.75),
		Min: e.Min(), Max: e.Max(),
		Curve: e.Points(maxPoints),
	}
}

// cdfFromECDF digests an already-built ECDF at the default resolution.
func cdfFromECDF(e *stats.ECDF) CDFStat {
	return CDFStat{
		N:   e.N(),
		P25: e.Quantile(0.25), P50: e.Quantile(0.5), P75: e.Quantile(0.75),
		Min: e.Min(), Max: e.Max(),
		Curve: e.Points(curvePoints),
	}
}

// colCDF digests a shared column through its order-statistics view: on a
// plain column that is the cached sorted slice (one sort, shared by every
// figure); on a segmented-snapshot column it selects across the cached
// sealed+tail runs, so a live query never materializes the merged slice.
// Either way the digest is bit-identical to the merged-and-sorted path.
func colCDF(col *trace.FloatColumn) CDFStat { return viewCDF(col.Stats()) }

// viewCDF digests an order-statistics view at the default resolution.
func viewCDF(v *stats.RunsView) CDFStat {
	return CDFStat{
		N:   v.N(),
		P25: v.Quantile(0.25), P50: v.Quantile(0.5), P75: v.Quantile(0.75),
		Min: v.Min(), Max: v.Max(),
		Curve: v.Points(curvePoints),
	}
}

// ownedCDF digests xs by sorting it in place — for scratch slices the caller
// owns and will not reuse. NaNs are dropped first, matching NewCDFStat.
func ownedCDF(xs []float64) CDFStat {
	kept := xs[:0]
	for _, v := range xs {
		if !math.IsNaN(v) {
			kept = append(kept, v)
		}
	}
	sort.Float64s(kept)
	return cdfFromECDF(stats.NewECDFSorted(kept))
}

// curvePoints is the default render resolution of CDF curves.
const curvePoints = 256
