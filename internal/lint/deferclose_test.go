package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestDeferClose(t *testing.T) {
	runFixture(t, "deferclose", lint.DeferClose)
}
