package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestSeedFlow(t *testing.T) {
	runFixture(t, "seedflow", lint.SeedFlow)
}

// TestSeedFlowDistExempt loads a fixture whose import path ends in
// /internal/dist: the substrate package may construct raw generators, so the
// fixture has no want-comments and must stay silent.
func TestSeedFlowDistExempt(t *testing.T) {
	runFixture(t, "x/internal/dist", lint.SeedFlow)
}
