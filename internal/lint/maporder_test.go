package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestMapOrder(t *testing.T) {
	runFixture(t, "maporder", lint.MapOrder)
}
