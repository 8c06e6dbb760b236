package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestFieldAlign(t *testing.T) {
	runFixture(t, "fieldalign", lint.FieldAlign)
}
