package lint

import (
	"fmt"
	"strings"
)

// All returns every registered analyzer in stable order: the five
// syntactic project invariant checks first, then the CFG/dataflow
// analyzers (PR 10), then the vet-family passes, then the opt-in
// informational ones.
func All() []*Analyzer {
	return []*Analyzer{
		NoWallClock,
		SeedFlow,
		MapOrder,
		FloatAccum,
		ErrSink,
		LockGuard,
		CommitOrder,
		HTTPTerm,
		DeferClose,
		CopyLocks,
		LostCancel,
		NilnessLite,
		FieldAlign,
	}
}

// KnownNames returns the name set of every registered analyzer, for the
// allow-comment auditor.
func KnownNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// Select filters the registry by the -only / -skip flag values (comma-
// separated analyzer names; empty means no filter). With no -only filter,
// the Default analyzers run. Unknown names are an error, reported in the
// order given — a typo must not silently select nothing.
func Select(only, skip string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	parse := func(list string) (map[string]bool, error) {
		set := map[string]bool{}
		if list == "" {
			return set, nil
		}
		for _, n := range strings.Split(list, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if byName[n] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (run with -list to see the registry)", n)
			}
			set[n] = true
		}
		return set, nil
	}
	want, err := parse(only)
	if err != nil {
		return nil, err
	}
	drop, err := parse(skip)
	if err != nil {
		return nil, err
	}
	var selected []*Analyzer
	for _, a := range All() {
		switch {
		case drop[a.Name]:
		case len(want) > 0:
			if want[a.Name] {
				selected = append(selected, a)
			}
		case a.Default:
			selected = append(selected, a)
		}
	}
	return selected, nil
}
