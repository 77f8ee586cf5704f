package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunAlphaSweep(t *testing.T) {
	inst, err := Setup(smallOPOAOConfig())
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := RunAlphaSweepContext(context.Background(), inst, []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Rows) != 2 {
		t.Fatalf("rows = %d", len(sweep.Rows))
	}
	// Higher alpha can never need fewer seeds under the same randomness.
	if sweep.Rows[1].Protectors < sweep.Rows[0].Protectors {
		t.Fatalf("alpha 0.9 used %d seeds, alpha 0.5 used %d",
			sweep.Rows[1].Protectors, sweep.Rows[0].Protectors)
	}
	for _, row := range sweep.Rows {
		if row.Target > sweep.NumEnds {
			t.Fatalf("target %d exceeds |B| = %d", row.Target, sweep.NumEnds)
		}
	}

	var buf bytes.Buffer
	if err := WriteAlphaSweep(&buf, sweep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protection-level sweep", "alpha", "0.50", "0.90"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("sweep output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunAlphaSweepGreedyMonotoneDamage(t *testing.T) {
	inst, err := Setup(smallOPOAOConfig())
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := RunAlphaSweepContext(context.Background(), inst, []float64{0.3, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	// More protection should not *increase* realized infections by much
	// (small Monte-Carlo slack allowed).
	lo, hi := sweep.Rows[0], sweep.Rows[1]
	if hi.Protectors > lo.Protectors && hi.MeanInfected > lo.MeanInfected*1.1 {
		t.Fatalf("alpha 0.95 (%d seeds) infected %.1f vs alpha 0.3 (%d seeds) %.1f",
			hi.Protectors, hi.MeanInfected, lo.Protectors, lo.MeanInfected)
	}
}
