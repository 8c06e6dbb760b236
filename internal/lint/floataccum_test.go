package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestFloatAccum(t *testing.T) {
	runFixture(t, "floataccum", lint.FloatAccum)
}
