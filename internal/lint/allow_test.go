package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestAllowSuppression proves //lint:allow silences exactly the named
// analyzer on the covered line and nothing else, and that unknown names and
// stale suppressions are reported (via the fixture's want comments).
func TestAllowSuppression(t *testing.T) {
	runFixture(t, "allowfix", lint.NoWallClock, lint.SeedFlow)
}

// TestAllowMalformed covers the audit diagnostics that land on the allow
// comment's own line, where a want comment cannot sit: anything written after
// the analyzer name would parse as the suppression reason. A malformed or
// reasonless allow must be reported AND must not suppress the finding it
// covers.
func TestAllowMalformed(t *testing.T) {
	pkg, err := fixtureLoader(t).Load("allowbad")
	if err != nil {
		t.Fatalf("loading allowbad: %v", err)
	}
	diags, err := lint.Run(pkg, []*lint.Analyzer{lint.NoWallClock}, lint.KnownNames())
	if err != nil {
		t.Fatalf("running nowallclock on allowbad: %v", err)
	}
	want := []string{
		"malformed suppression: want //lint:allow <analyzer> <reason>",
		"time.Now reads the wall clock",
		"//lint:allow nowallclock needs a reason",
		"time.Now reads the wall clock",
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want it to contain %q", i, diags[i].Message, w)
		}
	}
}
