package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestHTTPTerm(t *testing.T) {
	runFixture(t, "httpterm", lint.HTTPTerm)
}
