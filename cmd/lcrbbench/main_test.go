package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

func TestSelectJobs(t *testing.T) {
	tests := []struct {
		exp       string
		wantJobs  int
		wantKinds []string
	}{
		{"fig4", 1, []string{"opoao"}},
		{"fig7", 1, []string{"doam"}},
		{"table1", 3, []string{"table", "table", "table"}},
		{"opoao", 3, nil},
		{"doam", 3, nil},
		{"alpha", 1, []string{"alpha"}},
		{"transfer", 1, []string{"transfer"}},
		{"all", 9, nil},
	}
	for _, tt := range tests {
		t.Run(tt.exp, func(t *testing.T) {
			jobs, err := selectJobs(tt.exp, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != tt.wantJobs {
				t.Fatalf("jobs = %d, want %d", len(jobs), tt.wantJobs)
			}
			for i, kind := range tt.wantKinds {
				if jobs[i].kind != kind {
					t.Fatalf("job %d kind = %q, want %q", i, jobs[i].kind, kind)
				}
			}
		})
	}
	if _, err := selectJobs("nope", 0.1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTableBlockText(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-exp", "table1", "-scale", "0.04", "-quiet"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1-hep308", "SCBG", "Proximity", "MaxDegree", "shape:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFigureCSV(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-exp", "fig7", "-scale", "0.04", "-quiet", "-csv"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "experiment,rumor_fraction,algorithm,hop,mean_infected") {
		t.Fatalf("missing CSV header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "fig7,") {
		t.Fatalf("missing fig7 rows:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-exp", "nope"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run(context.Background(), []string{"-bogus"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
