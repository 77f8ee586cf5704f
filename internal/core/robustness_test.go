package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"lcrb/internal/diffusion"
	"lcrb/internal/graph"
)

func TestGreedySigmaFailureReturnsPartial(t *testing.T) {
	p := fixtureProblem(t)
	for _, plain := range []bool{false, true} {
		// Samples = 5, so the baseline estimate consumes invocations 1-5 and
		// invocation 8 fails inside the first selection round.
		fault := &diffusion.Fault{FailOn: 8}
		res, err := Greedy(p, GreedyOptions{
			Alpha: 0.9, Samples: 5, Seed: 1, Plain: plain,
			Realization: fault.Realization(diffusion.RunOPOAORealization),
		})
		if !errors.Is(err, diffusion.ErrInjected) {
			t.Fatalf("plain=%v: err = %v, want ErrInjected", plain, err)
		}
		if res == nil {
			t.Fatalf("plain=%v: nil result on mid-selection failure", plain)
		}
		if !res.Partial {
			t.Fatalf("plain=%v: Partial not set", plain)
		}
		if res.Evaluations == 0 {
			t.Fatalf("plain=%v: Evaluations not reported", plain)
		}
	}
}

func TestGreedyBaselineFailureIsConfigError(t *testing.T) {
	p := fixtureProblem(t)
	// Failure during the baseline estimate (invocation 2 of 5) is a broken
	// evaluator, not an interruption: no partial result.
	fault := &diffusion.Fault{FailOn: 2}
	res, err := Greedy(p, GreedyOptions{
		Alpha: 0.9, Samples: 5, Seed: 1,
		Realization: fault.Realization(diffusion.RunOPOAORealization),
	})
	if !errors.Is(err, diffusion.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil for a baseline evaluator failure", res)
	}
}

func TestGreedyCancelMidSelection(t *testing.T) {
	p := fixtureProblem(t)
	for _, plain := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		fault := &diffusion.Fault{}
		inner := diffusion.RunOPOAORealization
		// Cancel on the 8th realization: past the 5-sample baseline, inside
		// the first selection round (CELF heap pop or plain scan alike).
		real := func(g *graph.Graph, rumors, protectors []int32, realSeed uint64, opts diffusion.Options) (*diffusion.Result, error) {
			if fault.Calls() >= 7 {
				cancel()
			}
			return fault.Realization(inner)(g, rumors, protectors, realSeed, opts)
		}
		res, err := GreedyContext(ctx, p, GreedyOptions{
			Alpha: 0.9, Samples: 5, Seed: 1, Plain: plain, Realization: real,
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("plain=%v: err = %v, want context.Canceled", plain, err)
		}
		if res == nil || !res.Partial {
			t.Fatalf("plain=%v: res = %+v, want non-nil partial result", plain, res)
		}
	}
}

func TestGreedyContextDeadlineReturnsPartial(t *testing.T) {
	p := fixtureProblem(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := GreedyContext(ctx, p, GreedyOptions{Alpha: 0.9, Samples: 5, Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("res = %+v, want non-nil partial result", res)
	}
}

func TestGreedyMaxEvaluationsPrefix(t *testing.T) {
	p := fixtureProblem(t)
	for _, engine := range greedyEngines {
		opts := GreedyOptions{Alpha: 0.9, Samples: 10, Seed: 3, Realization: engine.realization}
		full, err := Greedy(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if full.Partial {
			t.Fatalf("%s: unconstrained run reported Partial", engine.name)
		}
		for budget := 1; budget < full.Evaluations; budget++ {
			capped := opts
			capped.MaxEvaluations = budget
			res, err := Greedy(p, capped)
			if !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("%s: budget %d: err = %v, want ErrBudgetExhausted", engine.name, budget, err)
			}
			if res == nil || !res.Partial {
				t.Fatalf("%s: budget %d: res = %+v, want non-nil partial result", engine.name, budget, res)
			}
			if res.Evaluations > budget {
				t.Fatalf("%s: budget %d: %d evaluations performed", engine.name, budget, res.Evaluations)
			}
			// Greedy selections are deterministic, so an interrupted run's
			// seed set must be a prefix of the uninterrupted run's.
			if len(res.Protectors) > len(full.Protectors) {
				t.Fatalf("%s: budget %d: partial selection longer than full: %v vs %v",
					engine.name, budget, res.Protectors, full.Protectors)
			}
			for i, u := range res.Protectors {
				if u != full.Protectors[i] {
					t.Fatalf("%s: budget %d: partial %v is not a prefix of %v",
						engine.name, budget, res.Protectors, full.Protectors)
				}
			}
		}
	}
}

func TestGreedyMaxDuration(t *testing.T) {
	p := fixtureProblem(t)
	res, err := Greedy(p, GreedyOptions{
		Alpha: 0.9, Samples: 5, Seed: 1, MaxDuration: time.Nanosecond,
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("res = %+v, want non-nil partial result", res)
	}
}

func TestSCBGContextPreCanceled(t *testing.T) {
	p := fixtureProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SCBGContext(ctx, p, SCBGOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEvaluateContextPreCanceled(t *testing.T) {
	p := fixtureProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvaluateContext(ctx, p, nil, EvaluateOptions{
		Model: diffusion.OPOAO{}, Samples: 4, Seed: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEvaluateContextMatchesEvaluate pins that a live, cancellable context
// leaves a completed evaluation identical to one under
// context.Background(): cancellation checks consume no randomness.
func TestEvaluateContextMatchesEvaluate(t *testing.T) {
	p := fixtureProblem(t)
	opts := EvaluateOptions{Model: diffusion.OPOAO{}, Samples: 12, Seed: 5}
	background, err := EvaluateContext(context.Background(), p, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live, err := EvaluateContext(ctx, p, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if background.MeanInfected != live.MeanInfected || background.MeanEndsInfected != live.MeanEndsInfected {
		t.Fatalf("evaluations diverged under a live context: %+v vs %+v", background, live)
	}
}

// TestGreedyDeadlineMargin reserves headroom before a context deadline:
// with a margin at least as large as the remaining time, σ̂ evaluation
// stops immediately under the partial-result contract — while the context
// itself is still alive, so the caller can act on the partial answer.
func TestGreedyDeadlineMargin(t *testing.T) {
	p := fixtureProblem(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	res, err := GreedyContext(ctx, p, GreedyOptions{
		Alpha: 0.9, Samples: 5, Seed: 1, DeadlineMargin: 2 * time.Hour,
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("res = %+v, want non-nil partial result", res)
	}
	if ctx.Err() != nil {
		t.Fatalf("context already dead: %v", ctx.Err())
	}
	if !IsInterruption(err) {
		t.Fatalf("IsInterruption(%v) = false, want true", err)
	}

	// Without a context deadline the margin is inert.
	if _, err := Greedy(p, GreedyOptions{
		Alpha: 0.9, Samples: 5, Seed: 1, DeadlineMargin: 2 * time.Hour,
	}); err != nil {
		t.Fatalf("margin without deadline: %v", err)
	}
}

// TestGreedyNegativeDeadlineMargin rejects a negative margin.
func TestGreedyNegativeDeadlineMargin(t *testing.T) {
	p := fixtureProblem(t)
	if _, err := Greedy(p, GreedyOptions{
		Alpha: 0.9, Samples: 5, Seed: 1, DeadlineMargin: -time.Second,
	}); err == nil {
		t.Fatal("negative DeadlineMargin accepted")
	}
}
