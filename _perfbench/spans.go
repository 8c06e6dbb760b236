package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Parent is the ID of the span that caused
// it (0 for a root); spans of one traced run share Run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	Run    string  `json:"run"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path runs the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span and returns its ID for end and for child spans.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, Run: t.run})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes summarizes spans by name: every duration, and the summed self
// time (duration minus the time covered by child spans).
type layerTimes struct {
	durs map[string][]float64
	self map[string]float64
}

func summarize(spans []span) layerTimes {
	child := make(map[int]float64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			child[p] += spans[i].dur()
		}
	}
	lt := layerTimes{durs: map[string][]float64{}, self: map[string]float64{}}
	for i := range spans {
		s := &spans[i]
		lt.durs[s.Name] = append(lt.durs[s.Name], s.dur())
		lt.self[s.Name] += s.dur() - child[s.ID]
	}
	return lt
}

// median of the named span's durations, scaled (1 for seconds, 1000 for ms).
func (lt layerTimes) median(name string, scale float64) float64 {
	return stats.Median(lt.durs[name]) * scale
}

func (lt layerTimes) total(name string) float64 {
	sum := 0.0
	for _, d := range lt.durs[name] {
		sum += d
	}
	return sum
}

// reconcile compares the summed self time of layers with the end-to-end
// time e2e and prints the share no layer accounts for. It reports whether
// that remainder is within tol of e2e.
func (lt layerTimes) reconcile(path string, layers []string, e2e, tol float64) (remainder float64, ok bool) {
	sort.Strings(layers)
	accounted := 0.0
	fmt.Printf("layer sum (%s path), end-to-end %.4f s:\n", path, e2e)
	for _, l := range layers {
		accounted += lt.self[l]
		fmt.Printf("  %-24s self %9.4f s  %5.1f%%\n", l, lt.self[l], 100*lt.self[l]/e2e)
	}
	remainder = (e2e - accounted) / e2e
	ok = remainder <= tol && remainder >= -tol
	fmt.Printf("  %-24s      %9.4f s  %5.1f%%  (tolerance ±%.0f%%, ok=%v)\n", "unattributed", e2e-accounted, 100*remainder, 100*tol, ok)
	return remainder, ok
}
