package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// TestErrSink runs against a fixture importing stand-in repro/internal/trace
// and repro/internal/report packages (resolved from testdata/src ahead of the
// real module), exercising the suffix-based guarded-package match.
func TestErrSink(t *testing.T) {
	runFixture(t, "errsink", lint.ErrSink)
}
