package core

import (
	"context"
	"fmt"
	"time"

	"lcrb/internal/rrset"
)

// coverGreedy is GreedyContext's engine: algorithm 1 on the RR
// sets of its own common-random-numbers realizations. σ̂(S) × Samples over
// those realizations is exactly the number of (realization, end) pairs the
// rumor never reaches plus the pairs whose RR set S intersects (the RR-set
// ≡ CRN identity that internal/sketch's TestSigmaEqualsCRNRealizationCount
// pins), so the greedy over candidate marginal gains is a greedy max
// coverage over pairs. The realizations are sampled once, on the workers,
// and the selection is rrset's lazy cover with integer gains over every
// node in some RR set — algorithm 1's unrestricted argmax, since a node in
// no RR set has zero gain. No diffusion is re-simulated per candidate.
//
// The budgets follow the partial-result contract of GreedyContext: the
// context and the wall-clock deadline are checked before every sampled
// realization; then the context before every recount and selection, and
// MaxEvaluations and the deadline before every row count, one count being
// one evaluation.
func coverGreedy(ctx context.Context, p *Problem, opts GreedyOptions, realSeeds []uint64, maxProtectors, workers int, deadline time.Time) (*GreedyResult, error) {
	expired := func() bool { return !deadline.IsZero() && !time.Now().Before(deadline) }
	smp := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, opts.MaxHops, false)
	reals, err := smp.Draw(realSeeds, nil, workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if expired() {
			return fmt.Errorf("%w: wall-clock budget spent before realization %d", ErrBudgetExhausted, i)
		}
		return nil
	}, IsInterruption)
	if err != nil {
		// Interrupted before any selection: the empty seed set is the
		// honest partial answer.
		return &GreedyResult{Partial: true}, fmt.Errorf("core: greedy: sample realizations: %w", err)
	}

	baseline := 0
	var pairs []rrset.Pair
	for _, r := range reals {
		baseline += r.Baseline
		pairs = append(pairs, r.Pairs...)
	}
	ix := rrset.NewIndex(pairs, workers)

	n := float64(len(realSeeds))
	// The α target in pair units: σ̂(S) ≥ RequiredEnds(α) ⇔ covered pairs
	// ≥ required·N − baseline pairs, an exact integer comparison.
	targetPairs := p.RequiredEnds(opts.Alpha)*len(realSeeds) - baseline
	var c rrset.Cover
	if targetPairs > 0 {
		copts := rrset.CoverOptions{
			Target:    targetPairs,
			MaxSelect: maxProtectors,
			Plain:     opts.Plain,
			Budget: func(evals int) error {
				if opts.MaxEvaluations > 0 && evals >= opts.MaxEvaluations {
					return fmt.Errorf("%w: %d evaluations used", ErrBudgetExhausted, evals)
				}
				if expired() {
					return fmt.Errorf("%w: wall-clock budget spent after %d evaluations", ErrBudgetExhausted, evals)
				}
				return nil
			},
		}
		if opts.OnRound != nil {
			copts.OnSelect = func(c rrset.Cover) {
				notifyRound(opts.OnRound, c.Selected, float64(c.Gains[len(c.Gains)-1])/n, float64(baseline+c.Covered)/n)
			}
		}
		c, err = ix.Cover(ctx, copts)
	}

	res := &GreedyResult{
		Protectors:    c.Selected,
		ProtectedEnds: float64(baseline+c.Covered) / n,
		BaselineEnds:  float64(baseline) / n,
		Achieved:      c.Covered >= targetPairs,
		Evaluations:   c.Evaluations,
	}
	if res.Protectors == nil {
		res.Protectors = []int32{}
	}
	for _, g := range c.Gains {
		res.Gains = append(res.Gains, float64(g)/n)
	}
	if err != nil {
		res.Partial = true
		return res, fmt.Errorf("core: greedy: %w", err)
	}
	return res, nil
}
