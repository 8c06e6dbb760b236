package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestCopyLocks(t *testing.T) {
	runFixture(t, "copylocks", lint.CopyLocks)
}

func TestLostCancel(t *testing.T) {
	runFixture(t, "lostcancel", lint.LostCancel)
}

func TestNilnessLite(t *testing.T) {
	runFixture(t, "nilness", lint.NilnessLite)
}
