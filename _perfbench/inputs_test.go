package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/durable/client"
)

// TestInputsAreSeeded pins the benchmark's input contract: the same seed
// gives byte-identical request bodies and specs, another seed gives other
// inputs, and the server's command line carries no seed.
func TestInputsAreSeeded(t *testing.T) {
	ctx := context.Background()
	a, fa, err := generateServerInputs(ctx, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, fb, err := generateServerInputs(ctx, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := generateServerInputs(ctx, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash != b.hash || fa != fb || len(a.pool) != len(b.pool) || len(a.seed) != len(b.seed) {
		t.Fatalf("seed 7 twice: hashes %s / %s, fingerprints %s / %s", a.hash, b.hash, fa, fb)
	}
	for i := range a.pool {
		if !bytes.Equal(a.pool[i].body, b.pool[i].body) {
			t.Fatalf("seed 7 twice: body %d differs", i)
		}
	}
	if a.hash == c.hash {
		t.Fatal("seeds 7 and 8 gave identical request bodies")
	}
	// A run sends each pool body once under its content ID, so the seed and
	// pool bodies must be distinct or the server would ack duplicates.
	ids := map[string]bool{}
	for _, bt := range append(append([]batch(nil), a.seed...), a.pool...) {
		id := client.BatchID(bt.body)
		if ids[id] {
			t.Fatalf("two request bodies share batch ID %s", id)
		}
		ids[id] = true
	}
	if len(a.pool) < 4 {
		t.Fatalf("pool holds %d bodies, want at least the 4 requested", len(a.pool))
	}

	for _, sh := range []*simShape{simPaper, simContended} {
		h1, err := sh.specsHash(7)
		if err != nil {
			t.Fatal(err)
		}
		h2, _ := sh.specsHash(7)
		h3, _ := sh.specsHash(8)
		if h1 != h2 {
			t.Errorf("%s: seed 7 twice gave specs %s and %s", sh.name, h1, h2)
		}
		if h1 == h3 {
			t.Errorf("%s: seeds 7 and 8 gave identical specs", sh.name)
		}
	}

	for _, arg := range serverArgs("dir", ingestWL.snapJobs, a.cfg) {
		if strings.Contains(arg, "seed") {
			t.Errorf("simcloudd is passed %q; it must receive only generated inputs", arg)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		better string
		want   string
	}{
		{"faster", scale(0.8), "lower", "improved"},
		{"slower within bound", scale(1.05), "lower", "unchanged"},
		{"slower past bound", scale(1.3), "lower", "worse"},
		{"higher is better", scale(1.2), "higher", "improved"},
		{"equal", scale(1), "lower", "unchanged"},
	} {
		if got := verdict(parent, tc.change, tc.better, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := verdict(noisy, parent, "lower", 0.1); got != "unresolved" {
		t.Errorf("noisy parent: verdict %q, want unresolved", got)
	}

	for _, tc := range []struct {
		name string
		h    sideHealth
		v    string
		want string
	}{
		{"healthy gain", sideHealth{}, "improved", "improved"},
		{"incorrect parent run", sideHealth{incorrect: [2]int{1, 0}}, "unchanged", "unresolved"},
		{"incorrect change run", sideHealth{incorrect: [2]int{0, 1}}, "improved", "unresolved"},
		{"gain with more failures", sideHealth{failed: [2]int{0, 3}}, "improved", "unresolved"},
		{"regression with more failures", sideHealth{failed: [2]int{0, 3}}, "worse", "worse"},
		{"gain with fewer failures", sideHealth{failed: [2]int{3, 0}}, "improved", "improved"},
	} {
		if got := tc.h.gate(tc.v); got != tc.want {
			t.Errorf("%s: gate(%q) = %q, want %q", tc.name, tc.v, got, tc.want)
		}
	}
}
