package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunModelTransfer(t *testing.T) {
	inst, err := Setup(smallDOAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunModelTransferContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 models", len(tr.Rows))
	}
	for _, row := range tr.Rows {
		if row.BlockedInfected > row.OpenInfected {
			t.Fatalf("%s: blocking increased infections (%.1f > %.1f)",
				row.Model, row.BlockedInfected, row.OpenInfected)
		}
		if row.EndsProtectedFraction < 0 || row.EndsProtectedFraction > 1 {
			t.Fatalf("%s: fraction %v out of range", row.Model, row.EndsProtectedFraction)
		}
	}
	// Under its own model the SCBG solution protects (nearly) all ends.
	if tr.Rows[0].Model != "DOAM" {
		t.Fatalf("first row = %s, want DOAM", tr.Rows[0].Model)
	}
	if tr.Rows[0].EndsProtectedFraction < 0.75 {
		t.Fatalf("DOAM protection only %.2f", tr.Rows[0].EndsProtectedFraction)
	}

	var buf bytes.Buffer
	if err := WriteModelTransfer(&buf, tr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"model transfer", "DOAM", "OPOAO", "CLT", "ends protected"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}
