package predict

// The P² bugfix pins (ISSUE 7): before five observations the estimator used
// to index an unsorted bootstrap buffer with a truncated index — n=2 at
// p=0.5 returned the minimum instead of the midpoint — and on heavily tied
// streams the parabolic marker move could push an interior marker onto or
// past its neighbors. These tests sweep the n∈{0..6} boundary against the
// exact linear-interpolated quantile, hammer tied-value streams, and fuzz
// the small-sample path byte-for-byte against stats.QuantileSorted.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

// TestP2BoundaryCounts checks Value at every bootstrap size n∈{0..6} and a
// spread of quantiles: for n<5 the answer must be the exact interpolated
// sample quantile; at n=5 and n=6 the P² markers take over and the estimate
// must stay inside the observed range.
func TestP2BoundaryCounts(t *testing.T) {
	// Deliberately unsorted arrivals, so the old unsorted-buffer bug cannot
	// hide behind monotone input.
	arrivals := []float64{40, 10, 50, 20, 60, 30}
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95} {
		q := NewP2Quantile(p)
		if _, ok := q.Value(); ok {
			t.Fatalf("p=%v: empty estimator produced a value", p)
		}
		for n := 1; n <= len(arrivals); n++ {
			q.Add(arrivals[n-1])
			got, ok := q.Value()
			if !ok {
				t.Fatalf("p=%v n=%d: no value", p, n)
			}
			if !q.validate() {
				t.Fatalf("p=%v n=%d: marker invariant broken", p, n)
			}
			seen := append([]float64(nil), arrivals[:n]...)
			sort.Float64s(seen)
			if n < 5 {
				want := stats.QuantileSorted(seen, p)
				if got != want {
					t.Fatalf("p=%v n=%d: Value=%v, exact quantile=%v", p, n, got, want)
				}
			} else if got < seen[0] || got > seen[n-1] {
				t.Fatalf("p=%v n=%d: Value=%v outside observed range [%v,%v]",
					p, n, got, seen[0], seen[n-1])
			}
		}
	}
}

// TestP2TiedValues drives the degenerate-marker hazard: long runs of
// identical observations (with occasional level shifts) used to let the
// parabolic update produce non-monotone or non-finite heights. The markers
// must stay ordered and finite and the estimate inside the observed range
// for every prefix.
func TestP2TiedValues(t *testing.T) {
	streams := [][]float64{
		{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7},
		{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1},
		{5, 5, 5, 5, 5, 5, 5, 5, 100, 5, 5, 5, 5, 5, 5, 5, 5, 5},
		{1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2},
		{3, 3, 3, 1e-9, 3, 3, 3, 1e-9, 3, 3, 3},
	}
	for si, stream := range streams {
		for _, p := range []float64{0.25, 0.5, 0.9} {
			q := NewP2Quantile(p)
			lo, hi := math.Inf(1), math.Inf(-1)
			for i, v := range stream {
				q.Add(v)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				if !q.validate() {
					t.Fatalf("stream %d p=%v: markers broken after %d adds", si, p, i+1)
				}
				got, ok := q.Value()
				if !ok {
					t.Fatalf("stream %d p=%v: no value at n=%d", si, p, i+1)
				}
				if math.IsNaN(got) || got < lo-1e-9 || got > hi+1e-9 {
					t.Fatalf("stream %d p=%v n=%d: Value=%v outside [%v,%v]",
						si, p, i+1, got, lo, hi)
				}
			}
		}
	}
	// All-equal stream must converge to exactly that value.
	q := NewP2Quantile(0.5)
	for i := 0; i < 100; i++ {
		q.Add(42)
	}
	if v, _ := q.Value(); v != 42 {
		t.Fatalf("constant stream median = %v, want 42", v)
	}
}

// FuzzP2Quantile cross-checks the estimator against stats.QuantileSorted:
// exact equality on the n<5 bootstrap path, range-membership and marker
// monotonicity beyond it — for arbitrary byte-derived streams including
// heavy ties.
func FuzzP2Quantile(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(128))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0}, uint8(64))
	f.Add([]byte{255, 0, 255, 0, 255, 0, 255, 0}, uint8(230))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1}, uint8(13))
	f.Fuzz(func(t *testing.T, raw []byte, pb uint8) {
		p := (float64(pb) + 1) / 257 // p in (0,1)
		q := NewP2Quantile(p)
		var seen []float64
		for i, b := range raw {
			// Small alphabet on purpose: ties are the hazardous regime.
			v := float64(b % 16)
			q.Add(v)
			seen = append(seen, v)
			if !q.validate() {
				t.Fatalf("markers broken after %d adds (p=%v)", i+1, p)
			}
			got, ok := q.Value()
			if !ok {
				t.Fatalf("no value after %d adds", i+1)
			}
			sorted := append([]float64(nil), seen...)
			sort.Float64s(sorted)
			if len(seen) < 5 {
				if want := stats.QuantileSorted(sorted, p); got != want {
					t.Fatalf("n=%d p=%v: Value=%v, QuantileSorted=%v", len(seen), p, got, want)
				}
			} else if got < sorted[0] || got > sorted[len(sorted)-1] {
				t.Fatalf("n=%d p=%v: Value=%v outside [%v,%v]",
					len(seen), p, got, sorted[0], sorted[len(sorted)-1])
			}
		}
	})
}

// TestP2ValueAllocFree pins the other half of the small-sample fix: Value
// used to copy and sort the bootstrap buffer on every call, which would have
// put an allocation inside the scheduler's backfill decision loop.
func TestP2ValueAllocFree(t *testing.T) {
	q := NewP2Quantile(0.5)
	q.Add(3)
	q.Add(1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := q.Value(); !ok {
			t.Fatal("no value")
		}
	})
	if allocs != 0 {
		t.Fatalf("Value allocates %v per call on the small-sample path", allocs)
	}
}

// validate checks the estimator's state: markers must stay ordered and
// finite (for n<5, the sorted bootstrap prefix must be ordered).
func (q *P2Quantile) validate() bool {
	limit := 5
	if q.n < 5 {
		limit = q.n
	}
	for i := 0; i < limit; i++ {
		if math.IsNaN(q.heights[i]) {
			return false
		}
		if i > 0 && q.heights[i] < q.heights[i-1] {
			return false
		}
	}
	return true
}
