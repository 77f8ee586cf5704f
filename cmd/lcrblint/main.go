// Command lcrblint runs the repo's custom analyzers over the module,
// alongside a selected set of standard go vet passes. The suite has seven
// analyzers in two layers: the convention analyzers (mapiter, rngsource,
// errfmt) and the CFG/dataflow-backed concurrency analyzers (goroleak,
// lockguard, ctxflow, detflow).
//
// Usage:
//
//	lcrblint [-fix] [-vet=false] [-sarif out.json] [-ignores] [packages]
//
// With no package patterns it checks ./... relative to the current
// directory. Findings print as file:line:col: analyzer: message and make
// the command exit 1, so `make lint` and CI can gate on it. A finding can
// be suppressed with a reasoned directive on, or directly above, the
// flagged line:
//
//	//lint:ignore mapiter per-key sums here are order-independent
//
// -fix applies each diagnostic's suggested fix (currently: the mapiter
// sort-keys-before-range rewrite) and reformats the touched files.
//
// -sarif additionally writes the findings as a SARIF 2.1.0 log (always,
// even when empty), for code-scanning upload; the plain-text output is
// unchanged.
//
// -ignores switches to the suppression audit: every lint:ignore directive
// in non-test files is listed with its position and reason, and the exit
// code is 1 if any directive is malformed, names an unknown analyzer,
// carries a reason shorter than 10 characters, or is stale (suppresses no
// current diagnostic).
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"os/exec"

	"lcrb/internal/analysis"
	"lcrb/internal/analysis/checker"
	"lcrb/internal/analysis/ctxflow"
	"lcrb/internal/analysis/detflow"
	"lcrb/internal/analysis/errfmt"
	"lcrb/internal/analysis/goroleak"
	"lcrb/internal/analysis/load"
	"lcrb/internal/analysis/lockguard"
	"lcrb/internal/analysis/mapiter"
	"lcrb/internal/analysis/rngsource"
)

// analyzers is the lcrblint suite, in stable name order.
var analyzers = []*analysis.Analyzer{
	ctxflow.Analyzer,
	detflow.Analyzer,
	errfmt.Analyzer,
	goroleak.Analyzer,
	lockguard.Analyzer,
	mapiter.Analyzer,
	rngsource.Analyzer,
}

// vetPasses is the subset of standard go vet checks run alongside the
// custom suite. Kept explicit so a toolchain upgrade cannot silently widen
// or narrow the gate.
var vetPasses = []string{
	"atomic", "bools", "copylocks", "errorsas", "loopclosure", "lostcancel",
	"nilfunc", "printf", "stdmethods", "stringintconv", "unreachable", "unusedresult",
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("lcrblint", flag.ExitOnError)
	fix := fs.Bool("fix", false, "apply suggested fixes to the source tree")
	vet := fs.Bool("vet", true, "also run the selected standard go vet passes")
	sarifOut := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	ignores := fs.Bool("ignores", false, "audit lint:ignore directives instead of printing findings")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: lcrblint [-fix] [-vet=false] [-sarif out.json] [-ignores] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if *vet && !*ignores {
		if err := runVet(patterns); err != nil {
			fmt.Fprintf(os.Stderr, "lcrblint: %v\n", err)
			failed = true
		}
	}

	fset := token.NewFileSet()
	pkgs, err := load.Load(fset, ".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcrblint: %v\n", err)
		return 2
	}
	detail, err := checker.RunDetailed(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcrblint: %v\n", err)
		return 2
	}
	findings := detail.Findings

	if *ignores {
		return auditIgnores(fset, pkgs, detail)
	}

	if *fix {
		fixed, err := checker.ApplyFixes(fset, findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lcrblint: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "lcrblint: applied %d suggested fix(es)\n", fixed)
		var remaining []checker.Finding
		for _, f := range findings {
			if len(f.Diag.SuggestedFixes) == 0 {
				remaining = append(remaining, f)
			}
		}
		findings = remaining
	}

	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, analyzers, findings); err != nil {
			fmt.Fprintf(os.Stderr, "lcrblint: %v\n", err)
			return 2
		}
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 || failed {
		return 1
	}
	return 0
}

// runVet invokes the selected standard vet passes as a subprocess; their
// output streams through unchanged.
func runVet(patterns []string) error {
	args := []string{"vet"}
	for _, p := range vetPasses {
		args = append(args, "-"+p)
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go vet: %w", err)
	}
	return nil
}
