package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"lcrb/internal/diffusion"
)

func TestEvaluateDOAMFixture(t *testing.T) {
	p := fixtureProblem(t)
	sol, err := SCBG(p, SCBGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateContext(context.Background(), p, sol.Protectors, EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Samples != 1 {
		t.Fatalf("DOAM evaluation used %d samples, want 1", ev.Samples)
	}
	if ev.MeanEndsInfected != 0 {
		t.Fatalf("SCBG solution lost %.1f ends on the fixture", ev.MeanEndsInfected)
	}
	if ev.EndsProtectedFraction != 1 {
		t.Fatalf("EndsProtectedFraction = %v", ev.EndsProtectedFraction)
	}
}

func TestEvaluateNoBlockingBaseline(t *testing.T) {
	p := fixtureProblem(t)
	ev, err := EvaluateContext(context.Background(), p, nil, EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With no protection the fixture's rumor reaches both ends.
	if ev.MeanEndsInfected != 2 {
		t.Fatalf("MeanEndsInfected = %v, want 2", ev.MeanEndsInfected)
	}
	if ev.EndsProtectedFraction != 0 {
		t.Fatalf("EndsProtectedFraction = %v, want 0", ev.EndsProtectedFraction)
	}
}

func TestEvaluateStochasticModel(t *testing.T) {
	p := fixtureProblem(t)
	ev, err := EvaluateContext(context.Background(), p, []int32{3}, EvaluateOptions{
		Model:   diffusion.OPOAO{},
		Samples: 30,
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Samples != 30 {
		t.Fatalf("Samples = %d", ev.Samples)
	}
	if ev.MeanEndsInfected < 0 || ev.MeanEndsInfected > 2 {
		t.Fatalf("MeanEndsInfected = %v out of [0,2]", ev.MeanEndsInfected)
	}
	if math.Abs((1-ev.MeanEndsInfected/2)-ev.EndsProtectedFraction) > 1e-9 {
		t.Fatalf("fraction inconsistent: %v vs %v", ev.MeanEndsInfected, ev.EndsProtectedFraction)
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := EvaluateContext(context.Background(), nil, nil, EvaluateOptions{}); err == nil {
		t.Fatal("nil problem accepted")
	}
}

// TestEvaluateRejectsNegativeOptions pins the validation fix: negative
// Samples and MaxHops used to be silently coerced to the defaults; they
// are now rejected with the package's error convention, matching what
// GreedyContext does. Zero still means "use the default".
func TestEvaluateRejectsNegativeOptions(t *testing.T) {
	p := fixtureProblem(t)
	for _, tt := range []struct {
		name string
		opts EvaluateOptions
	}{
		{"negative samples", EvaluateOptions{Samples: -3}},
		{"negative hops", EvaluateOptions{MaxHops: -1}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, err := EvaluateContext(context.Background(), p, []int32{4}, tt.opts)
			if err == nil {
				t.Fatalf("%+v accepted", tt.opts)
			}
			if !strings.HasPrefix(err.Error(), "core: evaluate: ") {
				t.Fatalf("err = %q, want \"core: evaluate: \" prefix", err)
			}
		})
	}
	// Zero-valued options still default rather than error.
	if _, err := EvaluateContext(context.Background(), p, []int32{4}, EvaluateOptions{}); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

func TestEvaluateReproducible(t *testing.T) {
	p := fixtureProblem(t)
	opts := EvaluateOptions{Model: diffusion.OPOAO{}, Samples: 20, Seed: 7}
	a, err := EvaluateContext(context.Background(), p, []int32{4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateContext(context.Background(), p, []int32{4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanInfected != b.MeanInfected || a.MeanEndsInfected != b.MeanEndsInfected {
		t.Fatal("same seed produced different evaluations")
	}
}
