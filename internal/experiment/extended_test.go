package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunExtendedComparison(t *testing.T) {
	inst, err := Setup(smallDOAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunExtendedComparisonContext(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		AlgoSCBG: false, AlgoNoBlocking: false, AlgoProximity: false,
		AlgoMaxDegree: false, AlgoRandom: false, "PageRank": false,
		"DegreeDiscount": false, "GVS": false,
	}
	var scbg, noBlocking *ExtendedRow
	for i := range cmp.Rows {
		row := &cmp.Rows[i]
		if _, ok := want[row.Algorithm]; !ok {
			t.Fatalf("unexpected algorithm %q", row.Algorithm)
		}
		want[row.Algorithm] = true
		if row.Protectors > cmp.Budget {
			t.Fatalf("%s exceeded budget: %d > %d", row.Algorithm, row.Protectors, cmp.Budget)
		}
		switch row.Algorithm {
		case AlgoSCBG:
			scbg = row
		case AlgoNoBlocking:
			noBlocking = row
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("missing algorithm %q", name)
		}
	}
	if scbg.Infected > noBlocking.Infected {
		t.Fatalf("SCBG infected %d above NoBlocking %d", scbg.Infected, noBlocking.Infected)
	}
	if scbg.EndsLost != 0 && scbg.EndsLost > cmp.NumEnds/4 {
		t.Fatalf("SCBG lost %d of %d ends", scbg.EndsLost, cmp.NumEnds)
	}

	var buf bytes.Buffer
	if err := WriteExtendedComparison(&buf, cmp); err != nil {
		t.Fatal(err)
	}
	for _, wantStr := range []string{"extended baseline comparison", "GVS", "PageRank", "ends lost"} {
		if !strings.Contains(buf.String(), wantStr) {
			t.Fatalf("output missing %q:\n%s", wantStr, buf.String())
		}
	}
}
