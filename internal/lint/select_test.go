package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

func names(as []*lint.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

func TestSelectDefaults(t *testing.T) {
	got, err := lint.Select("", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range got {
		if !a.Default {
			t.Errorf("non-default analyzer %s selected with no -only filter", a.Name)
		}
	}
	has := map[string]bool{}
	for _, n := range names(got) {
		has[n] = true
	}
	if has["fieldalign"] {
		t.Error("opt-in fieldalign must not run by default")
	}
	for _, n := range []string{"nowallclock", "seedflow", "maporder", "floataccum", "errsink"} {
		if !has[n] {
			t.Errorf("default set is missing %s", n)
		}
	}
}

func TestSelectOnly(t *testing.T) {
	got, err := lint.Select("maporder, seedflow", "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"seedflow", "maporder"} // registry order, not flag order
	if g := strings.Join(names(got), ","); g != strings.Join(want, ",") {
		t.Errorf("Select(only) = %s, want %s", g, strings.Join(want, ","))
	}
}

func TestSelectSkip(t *testing.T) {
	got, err := lint.Select("", "maporder")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names(got) {
		if n == "maporder" {
			t.Error("skipped analyzer still selected")
		}
	}
}

func TestSelectUnknown(t *testing.T) {
	if _, err := lint.Select("nosuchcheck", ""); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Errorf("Select with unknown -only name: err = %v, want unknown-analyzer error", err)
	}
	if _, err := lint.Select("", "nosuchcheck"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Errorf("Select with unknown -skip name: err = %v, want unknown-analyzer error", err)
	}
}
