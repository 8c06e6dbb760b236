package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// TestCommitOrder runs against a fixture whose import path ends in
// internal/durable, exercising the suffix-based package scope the same
// way the errsink fixture does.
func TestCommitOrder(t *testing.T) {
	runFixture(t, "durablefix/internal/durable", lint.CommitOrder)
}

// TestCommitOrderOutOfScope proves the analyzer ignores packages outside
// internal/durable: the lockguard fixture mutates state freely and must
// stay silent under commitorder.
func TestCommitOrderOutOfScope(t *testing.T) {
	loader := fixtureLoader(t)
	pkg, err := loader.Load("lockguard")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := lint.Run(pkg, []*lint.Analyzer{lint.CommitOrder}, lint.KnownNames())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		if d.Analyzer == "commitorder" {
			t.Errorf("unexpected commitorder finding outside internal/durable: %s", d.Message)
		}
	}
}
