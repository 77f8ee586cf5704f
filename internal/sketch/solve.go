package sketch

import (
	"context"
	"fmt"

	"lcrb/internal/core"
	"lcrb/internal/rrset"
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

// SolveGreedyRISContext is the sketch-based counterpart of
// core.GreedyContext: it greedily covers (realization, end) pairs until
// σ̂_RIS(S) reaches the α·|B| target, returning the same GreedyResult
// shape with sketch-based σ̂ — and running zero diffusion simulations.
// Coverage counting runs on the sketch's rrset.Index: on a dense index
// every marginal-gain recount is one word-parallel AND-NOT popcount sweep
// over the candidate's arena row, and on a sparse one (the paper-scale
// Enron sketches) a read of the candidate's exact gain, which the cover
// decrements as pairs get covered. Both give the same counts, so the
// selection and its evaluation count do not depend on the kernel.
//
// Coverage guarantee: pair coverage is an exactly submodular set function
// of S, so the lazy evaluation (a candidate's previous marginal coverage
// upper-bounds its current one) selects the identical sequence to full
// greedy, and after k selections the covered-pair count is within a
// (1 − 1/e) factor of the best achievable with any k seeds (Nemhauser,
// Wolsey & Fisher 1978). Because every coverable pair's RR set contains
// its own end, some candidate always has positive marginal coverage while
// uncovered pairs remain: run with the default protector budget of |B|,
// the selector either reaches the α target exactly or exhausts the budget
// with the (1 − 1/e)-approximate cover — it never stalls early.
//
// The sketch must belong to p: Validate is checked first and a stale
// sketch is rejected with an error wrapping ErrStale, never silently
// served. On cancellation the best-so-far prefix is returned with Partial
// set, following core.GreedyContext's partial-result contract.
func SolveGreedyRISContext(ctx context.Context, p *core.Problem, set *Set, opts SolveOptions) (*core.GreedyResult, error) {
	if p == nil {
		return nil, fmt.Errorf("sketch: solve: nil problem")
	}
	if set == nil {
		return nil, fmt.Errorf("sketch: solve: nil sketch set")
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.9
	}
	if err := core.ValidateAlphaOpen(opts.Alpha); err != nil {
		return nil, fmt.Errorf("sketch: solve: %w", err)
	}
	if err := set.Validate(p); err != nil {
		return nil, fmt.Errorf("sketch: solve: %w", err)
	}
	maxProtectors := opts.MaxProtectors
	if maxProtectors <= 0 {
		maxProtectors = len(p.Ends)
	}

	n := float64(set.Samples)
	res := &core.GreedyResult{
		BaselineEnds: float64(set.BaselinePairs) / n,
	}
	// The α target in pair units: σ̂(S) ≥ RequiredEnds(α) ⇔ covered
	// pairs ≥ required·N − baseline pairs. Everything is an integer, so
	// the comparison is exact — no float tolerance at the stopping rule.
	required := p.RequiredEnds(opts.Alpha)
	targetPairs := required*set.Samples - set.BaselinePairs

	st, loopErr := set.index.Cover(ctx, rrset.CoverOptions{Target: targetPairs, MaxSelect: maxProtectors})
	res.Evaluations = st.Evaluations
	res.Protectors = st.Selected
	if res.Protectors == nil {
		res.Protectors = []int32{}
	}
	for _, g := range st.Gains {
		res.Gains = append(res.Gains, float64(g)/n)
	}
	res.ProtectedEnds = float64(set.BaselinePairs+st.Covered) / n
	res.Achieved = st.Covered >= targetPairs
	if loopErr != nil {
		res.Partial = true
		return res, fmt.Errorf("sketch: solve: %w", loopErr)
	}
	return res, nil
}
