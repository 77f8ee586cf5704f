package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// baseArgs keeps the test scenarios small and fast.
func baseArgs(extra ...string) []string {
	args := []string{
		"-dataset", "hep", "-scale", "0.03", "-seed", "5",
		"-community-size", "50", "-rumor-frac", "0.05",
		"-hops", "15", "-samples", "10",
	}
	return append(args, extra...)
}

func TestRunSCBGDoam(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), baseArgs("-algorithm", "scbg", "-model", "doam"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"network:", "algorithm scbg selected", "infected nodes:", "bridge ends infected:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunGreedyOpoao(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), baseArgs("-algorithm", "greedy", "-model", "opoao", "-alpha", "0.6"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "algorithm greedy selected") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunHeuristics(t *testing.T) {
	for _, algo := range []string{"maxdegree", "proximity", "random", "none"} {
		t.Run(algo, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), baseArgs("-algorithm", algo, "-model", "doam"), &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "algorithm "+algo) {
				t.Fatalf("output:\n%s", out.String())
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"bad algorithm", baseArgs("-algorithm", "nope")},
		{"bad model", baseArgs("-model", "nope")},
		{"bad dataset", []string{"-dataset", "nope"}},
		{"bad flag", []string{"-bogus"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(context.Background(), tt.args, io.Discard, io.Discard); err == nil {
				t.Fatal("invalid invocation accepted")
			}
		})
	}
}
