package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"lcrb/internal/core"
	"lcrb/internal/rng"
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
	var models []string
	for _, row := range tr.Rows {
		models = append(models, row.Model)
		if row.BlockedInfected > row.OpenInfected {
			t.Fatalf("%s: blocking increased infections (%.1f > %.1f)",
				row.Model, row.BlockedInfected, row.OpenInfected)
		}
		if row.EndsProtectedFraction < 0 || row.EndsProtectedFraction > 1 {
			t.Fatalf("%s: fraction %v out of range", row.Model, row.EndsProtectedFraction)
		}
	}
	if strings.Join(models, ",") != "DOAM,OPOAO" {
		t.Fatalf("models = %v, want [DOAM OPOAO]", models)
	}

	// Re-solve the transfer's own problem to learn whether SCBG covered
	// every end. When it did, DOAM cannot infect any of them: a protector
	// at distance i from an end along a shortest path reaches each path
	// node no later than the rumor, and P wins ties.
	prob, err := inst.NewProblem(inst.Config.RumorFractions[0], rng.New(inst.Config.Seed+18))
	if err != nil {
		t.Fatal(err)
	}
	sres, err := core.SCBGContext(context.Background(), prob, core.SCBGOptions{})
	if sres == nil {
		t.Fatal(err)
	}
	if prob.NumEnds() != tr.NumEnds || len(sres.Protectors) != tr.Seeds {
		t.Fatalf("re-solved |B| = %d with %d seeds, transfer reported %d with %d",
			prob.NumEnds(), len(sres.Protectors), tr.NumEnds, tr.Seeds)
	}
	floor := 0.75
	if sres.UncoverableEnds == 0 {
		floor = 1
	}
	if tr.Rows[0].EndsProtectedFraction < floor {
		t.Fatalf("DOAM protection %.4f, want at least %v (%d uncoverable ends)",
			tr.Rows[0].EndsProtectedFraction, floor, sres.UncoverableEnds)
	}

	var buf bytes.Buffer
	if err := WriteModelTransfer(&buf, tr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"model transfer", "DOAM", "OPOAO", "ends protected"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}
