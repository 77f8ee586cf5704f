package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"lcrb/internal/diffusion"
)

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
	opts := GreedyOptions{Alpha: 0.9, Samples: 10, Seed: 3}
	full, err := Greedy(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("unconstrained run reported Partial")
	}
	for budget := 1; budget < full.Evaluations; budget++ {
		capped := opts
		capped.MaxEvaluations = budget
		res, err := Greedy(p, capped)
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("budget %d: err = %v, want ErrBudgetExhausted", budget, err)
		}
		if res == nil || !res.Partial {
			t.Fatalf("budget %d: res = %+v, want non-nil partial result", budget, res)
		}
		if res.Evaluations > budget {
			t.Fatalf("budget %d: %d evaluations performed", budget, res.Evaluations)
		}
		// Greedy selections are deterministic, so an interrupted run's
		// seed set must be a prefix of the uninterrupted run's.
		if len(res.Protectors) > len(full.Protectors) {
			t.Fatalf("budget %d: partial selection longer than full: %v vs %v",
				budget, res.Protectors, full.Protectors)
		}
		for i, u := range res.Protectors {
			if u != full.Protectors[i] {
				t.Fatalf("budget %d: partial %v is not a prefix of %v",
					budget, res.Protectors, full.Protectors)
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
