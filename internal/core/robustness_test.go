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
