package sketch

import (
	"context"
	"fmt"

	"lcrb/internal/core"
)

// SolveOptions tunes the RIS selector.
type SolveOptions struct {
	// Alpha is the fraction of bridge ends to protect, in (0, 1).
	// Defaults to 0.9, matching core.GreedyOptions.
	Alpha float64
	// MaxProtectors caps the seed-set size. 0 means |B|.
	MaxProtectors int
}

// SolveGreedyRIS selects protectors by lazy-greedy max coverage over the
// sketch; see SolveGreedyRISContext.
func SolveGreedyRIS(p *core.Problem, set *Set, opts SolveOptions) (*core.GreedyResult, error) {
	return SolveGreedyRISContext(context.Background(), p, set, opts)
}

// SolveGreedyRISContext is core.GreedyContext on a stored collection: it
// checks that the sketch belongs to p, then runs core.SolveCollection on
// the sketch's index, so it greedily covers (realization, end) pairs until
// σ̂_RIS(S) reaches the α·|B| target and runs zero diffusion simulations.
// For equal (Seed, Samples, MaxHops) it answers exactly what the greedy
// answers (TestGreedyBitIdenticalToSketchSolve).
//
// Coverage guarantee: pair coverage is an exactly submodular set function
// of S, so the lazy evaluation selects the identical sequence to full
// greedy, and after k selections the covered-pair count is within a
// (1 − 1/e) factor of the best achievable with any k seeds (Nemhauser,
// Wolsey & Fisher 1978).
//
// A stale sketch is rejected with an error wrapping ErrStale, never
// silently served. On cancellation the best-so-far prefix is returned with
// Partial set, following core.GreedyContext's partial-result contract.
func SolveGreedyRISContext(ctx context.Context, p *core.Problem, set *Set, opts SolveOptions) (*core.GreedyResult, error) {
	if p == nil {
		return nil, fmt.Errorf("sketch: solve: nil problem")
	}
	if set == nil {
		return nil, fmt.Errorf("sketch: solve: nil sketch set")
	}
	if err := set.Validate(p); err != nil {
		return nil, fmt.Errorf("sketch: solve: %w", err)
	}
	c := &core.Collection{Samples: set.Samples, BaselinePairs: set.BaselinePairs, Index: set.index}
	return core.SolveCollection(ctx, p, c, core.GreedyOptions{Alpha: opts.Alpha, MaxProtectors: opts.MaxProtectors})
}
