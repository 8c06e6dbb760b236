package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestNoWallClock(t *testing.T) {
	runFixture(t, "nowallclock", lint.NoWallClock)
}
