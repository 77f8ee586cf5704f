package main

import "testing"

// TestRunCleanPackage drives the full pipeline (go list, type-check,
// analyzers) over one cheap, conforming package and expects a clean exit.
// Vet is skipped: it is exercised by `make lint` and would re-build the
// module inside the unit test.
func TestRunCleanPackage(t *testing.T) {
	if code := run([]string{"-vet=false", "lcrb/internal/rng"}); code != 0 {
		t.Fatalf("run() = %d, want 0", code)
	}
}

// TestAnalyzerNamesUnique guards the suppression syntax: lint:ignore
// directives address analyzers by name, so names must not collide. The
// count pins the full suite — dropping an analyzer from the slice should
// be a deliberate, test-visible act.
func TestAnalyzerNamesUnique(t *testing.T) {
	if len(analyzers) != 7 {
		t.Fatalf("suite has %d analyzers, want 7", len(analyzers))
	}
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" || a.Doc == "" {
			t.Fatalf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
