package lint_test

// Mutation tests: seed a realistic bug into the REAL production sources
// (copied to a temp dir, loaded through a resolver override) and prove
// the new CFG/dataflow analyzers catch it. This is the discriminating
// evidence the fixtures alone cannot give — the tree is clean, so each
// analyzer must (a) stay silent on the pristine copy and (b) fire on the
// seeded bug, in the very functions it was built to guard.

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lint"
)

// moduleRoot locates the repo root relative to this file.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate caller")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
}

// loadMutated copies the non-test sources of pkgDir into a temp dir,
// applies each old→new replacement (every one must apply exactly once
// across the package), and loads importPath with the copy standing in
// for the real package. Dependencies still resolve to the real module.
func loadMutated(t *testing.T, pkgDir, importPath string, mutations map[string]string) *lint.Package {
	t.Helper()
	tmp := t.TempDir()
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatalf("reading %s: %v", pkgDir, err)
	}
	applied := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(pkgDir, name))
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		for old, new := range mutations {
			if n := strings.Count(src, old); n > 0 {
				if n > 1 || applied[old] {
					t.Fatalf("mutation anchor not unique in package: %q", old)
				}
				src = strings.Replace(src, old, new, 1)
				applied[old] = true
			}
		}
		if err := os.WriteFile(filepath.Join(tmp, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for old := range mutations {
		if !applied[old] {
			t.Fatalf("mutation anchor not found anywhere in %s: %q", pkgDir, old)
		}
	}
	// Resolve against the REAL module (not linttest's fixture-first loader:
	// testdata/src carries a fake repro/internal/trace that would shadow
	// the real one), with only the target package redirected to the copy.
	loader := lint.NewLoader(moduleRoot(t), "repro")
	orig := loader.Resolve
	loader.Resolve = func(path string) (string, bool) {
		if path == importPath {
			return tmp, true
		}
		return orig(path)
	}
	pkg, err := loader.Load(importPath)
	if err != nil {
		t.Fatalf("loading mutated %s: %v", importPath, err)
	}
	return pkg
}

// findings runs one analyzer and returns its surviving diagnostics.
func findings(t *testing.T, pkg *lint.Package, a *lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	diags, err := lint.Run(pkg, []*lint.Analyzer{a}, lint.KnownNames())
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		if d.Analyzer == a.Name {
			out = append(out, d)
		}
	}
	return out
}

func requireFinding(t *testing.T, pkg *lint.Package, a *lint.Analyzer, substr string) {
	t.Helper()
	got := findings(t, pkg, a)
	for _, d := range got {
		if strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("%s: expected a finding containing %q, got %d finding(s): %v", a.Name, substr, len(got), got)
}

func requireClean(t *testing.T, pkg *lint.Package, a *lint.Analyzer) {
	t.Helper()
	if got := findings(t, pkg, a); len(got) != 0 {
		t.Errorf("%s: pristine copy must be clean, got: %v", a.Name, got)
	}
}

func TestMutationsDurable(t *testing.T) {
	root := moduleRoot(t)
	durableDir := filepath.Join(root, "internal", "durable")
	const durablePath = "repro/internal/durable"

	t.Run("pristine is clean", func(t *testing.T) {
		pkg := loadMutated(t, durableDir, durablePath, nil)
		requireClean(t, pkg, lint.CommitOrder)
		requireClean(t, pkg, lint.LockGuard)
	})

	t.Run("commitorder catches apply-before-append", func(t *testing.T) {
		pkg := loadMutated(t, durableDir, durablePath, map[string]string{
			"	seq, err := s.w.Append(KindBatch, payload)\n" +
				"	if err != nil {\n" +
				"		return Outcome{}, false, err\n" +
				"	}\n" +
				"	s.opts.Chaos.hit(\"apply\")\n" +
				"	s.seg.AppendDataset(ds)\n": "" +
				"	s.opts.Chaos.hit(\"apply\")\n" +
				"	s.seg.AppendDataset(ds)\n" +
				"	seq, err := s.w.Append(KindBatch, payload)\n" +
				"	if err != nil {\n" +
				"		return Outcome{}, false, err\n" +
				"	}\n",
		})
		requireFinding(t, pkg, lint.CommitOrder, "not dominated by a WAL Append")
	})

	t.Run("commitorder catches unchecked append error", func(t *testing.T) {
		pkg := loadMutated(t, durableDir, durablePath, map[string]string{
			"	seq, err := s.w.Append(KindBatch, payload)\n" +
				"	if err != nil {\n" +
				"		return Outcome{}, false, err\n" +
				"	}\n": "" +
				"	seq, err := s.w.Append(KindBatch, payload)\n" +
				"	_ = err\n",
		})
		requireFinding(t, pkg, lint.CommitOrder, "error is not checked by a terminating")
	})

	t.Run("commitorder catches rename without fsync", func(t *testing.T) {
		pkg := loadMutated(t, durableDir, durablePath, map[string]string{
			"	if err := f.Sync(); err != nil {\n" +
				"		f.Close()\n" +
				"		return err\n" +
				"	}\n" +
				"	if err := f.Close(); err != nil {\n" +
				"		return err\n" +
				"	}\n" +
				"	chaos.hit(\"snaptmp\")\n": "" +
				"	if err := f.Close(); err != nil {\n" +
				"		return err\n" +
				"	}\n" +
				"	chaos.hit(\"snaptmp\")\n",
		})
		requireFinding(t, pkg, lint.CommitOrder, "not dominated by an (*os.File).Sync")
	})

	t.Run("lockguard catches missing lock in IngestBatch", func(t *testing.T) {
		pkg := loadMutated(t, durableDir, durablePath, map[string]string{
			"	s.mu.Lock()\n" +
				"	defer s.mu.Unlock()\n" +
				"	if s.closed {\n" +
				"		return Outcome{}, false,": "" +
				"	if s.closed {\n" +
				"		return Outcome{}, false,",
		})
		requireFinding(t, pkg, lint.LockGuard, "without holding mu")
	})
}

func TestMutationsSimcloudd(t *testing.T) {
	root := moduleRoot(t)
	cmdDir := filepath.Join(root, "cmd", "simcloudd")
	const cmdPath = "repro/cmd/simcloudd"

	t.Run("pristine is clean", func(t *testing.T) {
		pkg := loadMutated(t, cmdDir, cmdPath, nil)
		requireClean(t, pkg, lint.HTTPTerm)
	})

	t.Run("httpterm catches missing return after http.Error", func(t *testing.T) {
		pkg := loadMutated(t, cmdDir, cmdPath, map[string]string{
			"			http.Error(w, \"GET only\", http.StatusMethodNotAllowed)\n" +
				"			return\n" +
				"		}\n" +
				"		h(w, r)\n": "" +
				"			http.Error(w, \"GET only\", http.StatusMethodNotAllowed)\n" +
				"		}\n" +
				"		h(w, r)\n",
		})
		requireFinding(t, pkg, lint.HTTPTerm, "after http.Error")
	})
}
