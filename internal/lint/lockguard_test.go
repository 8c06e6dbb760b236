package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestLockGuard(t *testing.T) {
	runFixture(t, "lockguard", lint.LockGuard)
}
