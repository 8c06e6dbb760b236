package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/stats"
)

// Summary holds the across-replication aggregates of a batch, one
// stats.Agg per metric. Samples must be folded in replication-index order
// (Run guarantees this); the canonical serialization is then a pure function
// of the folded samples, which is what the determinism tests fingerprint.
type Summary struct {
	aggs map[string]*stats.Agg
	reps []int // replication indices folded, in fold order
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{aggs: make(map[string]*stats.Agg)}
}

// AddSample folds one replication's metrics. A metric unseen so far is
// back-filled with NaN for earlier replications, and a metric missing from
// this sample records NaN, so every aggregate stays aligned with Reps().
func (s *Summary) AddSample(rep int, sm Sample) {
	for key := range sm {
		if s.aggs[key] == nil {
			a := &stats.Agg{}
			for range s.reps {
				a.Add(math.NaN())
			}
			s.aggs[key] = a
		}
	}
	for key, a := range s.aggs {
		if v, ok := sm[key]; ok {
			a.Add(v)
		} else {
			a.Add(math.NaN())
		}
	}
	s.reps = append(s.reps, rep)
}

// N returns the number of folded replications.
func (s *Summary) N() int { return len(s.reps) }

// Metrics returns the metric names in sorted order.
func (s *Summary) Metrics() []string {
	keys := make([]string, 0, len(s.aggs))
	for k := range s.aggs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteCanonical emits the deterministic text form: one line per metric,
// keys sorted, per-replication values in fold order with exact (round-
// tripping) float formatting, preceded by the folded replication indices.
// Two summaries built from the same (root seed, completed set) are byte-
// identical here no matter how many workers produced the samples.
func (s *Summary) WriteCanonical(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "reps=%v\n", s.reps); err != nil {
		return err
	}
	for _, key := range s.Metrics() {
		if _, err := io.WriteString(w, key); err != nil {
			return err
		}
		sep := "="
		for _, v := range s.aggs[key].Values() {
			if _, err := io.WriteString(w, sep+strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
			sep = ","
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint returns the SHA-256 of the canonical form, the value the
// determinism tests compare across worker counts.
func (s *Summary) Fingerprint() string {
	h := sha256.New()
	if err := s.WriteCanonical(h); err != nil {
		// sha256.digest.Write never fails; an error here means a broken
		// io.Writer contract, which is a programming error.
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Row is one metric's rendered across-replication statistics.
type Row struct {
	Metric string
	N      int
	Mean   float64
	StdErr float64
	CI     stats.CI
	Min    float64
	Median float64
	Max    float64
}

// Rows computes the report rows: mean ± stderr with a bootstrap CI of the
// mean at the given level, plus the replication-distribution extremes. The
// bootstrap reseeds per metric from ciSeed so rows are individually
// deterministic.
func (s *Summary) Rows(resamples int, level float64, ciSeed uint64) []Row {
	metrics := s.Metrics()
	rows := make([]Row, 0, len(metrics))
	for i, key := range metrics {
		a := s.aggs[key]
		rows = append(rows, Row{
			Metric: key,
			N:      a.Defined(),
			Mean:   a.Mean(),
			StdErr: a.StdErr(),
			CI:     a.MeanCI(resamples, level, ciSeed+uint64(i)),
			Min:    a.Min(),
			Median: a.Median(),
			Max:    a.Max(),
		})
	}
	return rows
}
