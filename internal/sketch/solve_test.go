package sketch

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"lcrb/internal/core"
)

func TestSolveGreedyRISAchievesTarget(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveGreedyRIS(p, set, SolveOptions{Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Achieved {
		t.Fatalf("α target not achieved: σ̂ = %.2f of %d ends", res.ProtectedEnds, p.NumEnds())
	}
	if res.ProtectedEnds < float64(p.RequiredEnds(0.9)) {
		t.Fatalf("Achieved set but σ̂ %.2f below target %d", res.ProtectedEnds, p.RequiredEnds(0.9))
	}
	if res.ProtectedEnds < res.BaselineEnds {
		t.Fatalf("final σ̂ %.2f below baseline %.2f", res.ProtectedEnds, res.BaselineEnds)
	}
	if res.Evaluations == 0 {
		t.Fatal("no evaluations recorded")
	}
	if res.Partial {
		t.Fatal("uninterrupted solve reported Partial")
	}
	for _, u := range res.Protectors {
		if p.IsRumor(u) {
			t.Fatalf("rumor seed %d selected as protector", u)
		}
	}
	if len(res.Gains) != len(res.Protectors) {
		t.Fatalf("%d gains for %d protectors", len(res.Gains), len(res.Protectors))
	}
	for i := 1; i < len(res.Gains); i++ {
		if res.Gains[i] > res.Gains[i-1] {
			t.Fatalf("gains not non-increasing at %d: %v", i, res.Gains)
		}
	}
	// Coverage is exact under the sketch: re-scoring the selection with
	// Sigma reproduces the reported σ̂ bit for bit.
	if got := set.Sigma(res.Protectors); got != res.ProtectedEnds {
		t.Fatalf("Sigma(selection) = %v != reported σ̂ %v", got, res.ProtectedEnds)
	}
}

func TestSolveGreedyRISValidation(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveGreedyRIS(nil, set, SolveOptions{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	if _, err := SolveGreedyRIS(p, nil, SolveOptions{}); err == nil {
		t.Fatal("nil sketch accepted")
	}
	if _, err := SolveGreedyRIS(p, set, SolveOptions{Alpha: 1}); err == nil {
		t.Fatal("alpha = 1 accepted (the LCRB-D regime)")
	}
	if _, err := SolveGreedyRIS(p, set, SolveOptions{Alpha: -0.5}); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := SolveGreedyRIS(p, set, SolveOptions{Alpha: math.NaN()}); err == nil {
		t.Fatal("NaN alpha accepted (the ad-hoc range checks were all false for NaN)")
	}
}

func TestSolveGreedyRISRejectsStaleSketch(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	other := testProblem(t, 400, 50, 42)
	set, err := Build(p, Options{Samples: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveGreedyRIS(other, set, SolveOptions{}); !errors.Is(err, ErrStale) {
		t.Fatalf("stale sketch returned %v, want ErrStale", err)
	}
}

func TestSolveGreedyRISCancellation(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveGreedyRISContext(ctx, p, set, SolveOptions{Alpha: 0.9})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("cancelled solve did not return a Partial best-so-far result")
	}
}

func TestSolveGreedyRISMaxProtectors(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveGreedyRIS(p, set, SolveOptions{Alpha: 0.9, MaxProtectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Protectors) > 1 {
		t.Fatalf("budget 1 selected %d protectors", len(res.Protectors))
	}
}

func TestSolveGreedyRISDeterministic(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := SolveGreedyRIS(p, set, SolveOptions{Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveGreedyRIS(p, set, SolveOptions{Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same sketch produced different solves")
	}
}

// TestSolveGreedyRISZeroSimulations pins the headline economics: a warm
// solve runs no diffusion simulations at all, where the Monte-Carlo greedy
// pays Evaluations × Samples of them. The build is the only sampling cost
// and it amortizes over every later solve.
func TestSolveGreedyRISZeroSimulations(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	set, err := Build(p, Options{Samples: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := core.Greedy(p, core.GreedyOptions{Alpha: 0.9, Samples: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ris, err := SolveGreedyRIS(p, set, SolveOptions{Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	mcSims := mc.Evaluations * 20
	if mcSims < 5*set.Samples {
		t.Skipf("MC greedy ran only %d simulations; instance too easy to compare", mcSims)
	}
	// The RIS solve's per-solve simulation count is zero by construction;
	// the one-time build cost (set.Samples realizations) must already be
	// at least 5× cheaper than a single MC greedy solve.
	if set.Samples*5 > mcSims {
		t.Fatalf("build cost %d realizations not ≥5× cheaper than MC solve's %d simulations",
			set.Samples, mcSims)
	}
	if !ris.Achieved {
		t.Fatal("RIS solve missed the α target on the comparison instance")
	}
}

// BenchmarkSolveGreedyRIS times the lazy-greedy max-coverage solve at
// α = 0.9 on a DefaultSamples sketch of the pinned hep instance: the
// fingerprint check, then the bucket-queue loop of recounts and commits.
func BenchmarkSolveGreedyRIS(b *testing.B) {
	p := hepProblem(b)
	set, err := Build(p, Options{Seed: 7, Workers: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchResult, err = SolveGreedyRIS(p, set, SolveOptions{Alpha: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResult keeps the benchmarked solve live.
var benchResult *core.GreedyResult
