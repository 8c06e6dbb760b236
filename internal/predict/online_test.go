package predict

import (
	"testing"

	"repro/internal/trace"
)

func TestOnlineClassifierColdAndSeparable(t *testing.T) {
	var c OnlineClassifier
	if _, ok := c.Classify(Features{}); ok {
		t.Fatal("cold classifier produced a class")
	}
	// One category is still cold: nearest-centroid over a single class is
	// vacuous.
	ide := MakeFeatures(5, 1, 10, 0.1, true, false, 24)
	c.Observe(ide, trace.IDE)
	if _, ok := c.Classify(ide); ok {
		t.Fatal("single-category classifier produced a class")
	}
	mature := MakeFeatures(80, 16, 40, 0.9, false, true, 24)
	for i := 0; i < 5; i++ {
		c.Observe(ide, trace.IDE)
		c.Observe(mature, trace.Mature)
	}
	if got, ok := c.Classify(MakeFeatures(6, 1, 11, 0.12, true, false, 24)); !ok || got != trace.IDE {
		t.Fatalf("near-IDE features classified as %v (ok=%v)", got, ok)
	}
	if got, ok := c.Classify(MakeFeatures(75, 15, 38, 0.85, false, true, 24)); !ok || got != trace.Mature {
		t.Fatalf("near-mature features classified as %v (ok=%v)", got, ok)
	}
	if int(c.n) != 11 {
		t.Fatalf("observations = %d", int(c.n))
	}
	// Out-of-range categories are dropped, not stored.
	c.Observe(ide, trace.Category(-1))
	c.Observe(ide, trace.NumCategories)
	if int(c.n) != 11 {
		t.Fatal("out-of-range category absorbed")
	}
}

// Ties break toward the lower category index, so the decision is stable.
func TestOnlineClassifierTieBreak(t *testing.T) {
	var c OnlineClassifier
	f := MakeFeatures(50, 10, 20, 0.5, false, false, 24)
	c.Observe(f, trace.Exploratory)
	c.Observe(f, trace.Development)
	got, ok := c.Classify(f)
	if !ok || got != trace.Exploratory {
		t.Fatalf("tie broke to %v (ok=%v), want the lower index (Exploratory)", got, ok)
	}
}

func TestRuntimeForecasterCascade(t *testing.T) {
	f := NewRuntimeForecaster()
	if _, ok := f.Predict(0, 3600); ok {
		t.Fatal("cold forecaster predicted")
	}
	if _, ok := f.PredictClass(trace.Mature, 3600); ok {
		t.Fatal("cold class forecast predicted")
	}

	// Global and class priors from other users: mature jobs run 1000 s,
	// development jobs 100 s.
	for i := 0; i < 10; i++ {
		f.Observe(10, trace.Mature, 1000)
		f.Observe(11, trace.Development, 100)
	}

	// Unseen user: global median.
	got, ok := f.Predict(0, 1e9)
	if !ok {
		t.Fatal("warm forecaster declined")
	}
	if got < 100 || got > 1000 {
		t.Fatalf("global fallback = %v, want within observed range", got)
	}

	// Thin user with a pure development history: the class-mix blend should
	// sit near the development median, far below the global mix.
	f.Observe(0, trace.Development, 120)
	thin, ok := f.Predict(0, 1e9)
	if !ok {
		t.Fatal("thin user declined")
	}
	devMed, _ := f.PredictClass(trace.Development, 1e9)
	if thin != devMed {
		t.Fatalf("thin-user blend = %v, want the development class median %v", thin, devMed)
	}

	// Rich user history dominates everything.
	f.Observe(0, trace.Development, 50)
	f.Observe(0, trace.Development, 50)
	f.Observe(0, trace.Development, 50)
	rich, _ := f.Predict(0, 1e9)
	if rich > 120 {
		t.Fatalf("rich-user median = %v, want ~50s scale", rich)
	}

	// The limit clamp: no estimate may exceed the requested wall clock.
	if v, _ := f.Predict(10, 300); v > 300 {
		t.Fatalf("estimate %v exceeds limit 300", v)
	}
	if v, _ := f.Predict(10, 0); v < 1 {
		t.Fatalf("unlimited estimate %v below the 1s floor", v)
	}
}

func TestRuntimeForecasterKnobs(t *testing.T) {
	biased := NewRuntimeForecaster()
	biased.ObsScale = 4
	for i := 0; i < 8; i++ {
		biased.Observe(1, trace.Mature, 100)
	}
	if v, _ := biased.Predict(1, 1e9); v != 400 {
		t.Fatalf("ObsScale=4 estimate = %v, want 400", v)
	}

	frozen := NewRuntimeForecaster()
	frozen.FreezeAfterObs = 5
	for i := 0; i < 5; i++ {
		frozen.Observe(1, trace.Mature, 100)
	}
	for i := 0; i < 20; i++ {
		frozen.Observe(1, trace.Mature, 10000) // the workload shifted; the model must not follow
	}
	if v, _ := frozen.Predict(1, 1e9); v != 100 {
		t.Fatalf("frozen estimate = %v, want the pre-freeze 100", v)
	}
	if frozen.observed != 25 {
		t.Fatalf("observed = %d, want 25 offered", frozen.observed)
	}
}
