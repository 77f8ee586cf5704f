package core

import (
	"context"
	"errors"
	"fmt"

	"lcrb/internal/bridge"
	"lcrb/internal/setcover"
)

// SCBGOptions tunes the Set-Cover-Based Greedy algorithm.
type SCBGOptions struct {
	// Alpha is the required protection level in (0, 1]. The LCRB-D
	// problem of the paper is Alpha = 1 (protect every bridge end), which
	// is the default when Alpha is 0.
	Alpha float64
	// Cost optionally assigns a positive recruitment cost to each
	// candidate protector; the greedy then minimizes total cost instead
	// of seed count (weighted set cover, a natural least-"cost" extension
	// of the paper's unit-cost problem). Nil means unit costs. A
	// non-positive cost for any candidate is an error.
	Cost func(node int32) float64
}

// SCBGResult is the output of SCBG.
type SCBGResult struct {
	// Protectors is the selected protector seed set W, in selection order.
	Protectors []int32
	// CoveredEnds is the number of bridge ends covered by the selection.
	CoveredEnds int
	// Cost is the total cost of the selection: the seed count under unit
	// costs, or the summed SCBGOptions.Cost values.
	Cost float64
	// Candidates is the number of distinct candidate protectors
	// (|∪ Q_v \ S_R|) the set-cover stage chose from.
	Candidates int
	// UncoverableEnds counts bridge ends no candidate can protect (only
	// possible when the BBST construction yields degenerate trees; with
	// each end in its own tree this stays 0).
	UncoverableEnds int
}

// ErrNoBridgeEnds is returned when the instance has no bridge ends; there
// is nothing to protect and the empty seed set is optimal.
var ErrNoBridgeEnds = errors.New("core: instance has no bridge ends")

// SCBG runs the paper's Set-Cover-Based Greedy algorithm (algorithm 3):
// build the Bridge-end Backward Search Tree of every bridge end, invert the
// trees into per-candidate coverage sets SW_u, and greedily pick candidates
// covering the most still-unprotected ends until the required fraction of B
// is covered. Achieves the O(ln n) approximation that is optimal for
// LCRB-D unless P = NP (Theorems 2 and 3).
func SCBG(p *Problem, opts SCBGOptions) (*SCBGResult, error) {
	return SCBGContext(context.Background(), p, opts)
}

// SCBGContext is SCBG with cooperative cancellation: the context is checked
// before the BBST construction and once per set-cover selection round. On
// cancellation the wrapped context error is returned; unlike GreedyContext
// there is no partial-result contract here because SCBG is fast enough that
// a partial cover is rarely worth reporting — rerun with a live context.
func SCBGContext(ctx context.Context, p *Problem, opts SCBGOptions) (*SCBGResult, error) {
	if p == nil {
		return nil, fmt.Errorf("core: SCBG: nil problem")
	}
	if opts.Alpha == 0 {
		opts.Alpha = 1
	}
	if err := ValidateAlphaClosed(opts.Alpha); err != nil {
		return nil, fmt.Errorf("core: SCBG: %w", err)
	}
	if len(p.Ends) == 0 {
		return nil, ErrNoBridgeEnds
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: SCBG: %w", err)
	}
	trees, err := bridge.Build(p.Graph, p.Rumors, p.Ends)
	if err != nil {
		return nil, fmt.Errorf("core: SCBG: build BBSTs: %w", err)
	}
	cov := trees.Invert()

	in := setcover.Instance{
		Universe: len(p.Ends),
		Sets:     cov.Covers,
	}
	if opts.Cost != nil {
		in.Costs = make([]float64, len(cov.Candidates))
		for i, u := range cov.Candidates {
			in.Costs[i] = opts.Cost(u)
		}
	}
	need := p.RequiredEnds(opts.Alpha)
	sol, err := setcover.GreedyPartialContext(ctx, in, need)
	if err != nil && !errors.Is(err, setcover.ErrUncoverable) {
		return nil, fmt.Errorf("core: SCBG: set cover: %w", err)
	}
	res := &SCBGResult{Candidates: len(cov.Candidates)}
	if sol != nil {
		res.CoveredEnds = sol.Covered
		res.Cost = sol.Cost
		res.Protectors = make([]int32, len(sol.Chosen))
		for i, si := range sol.Chosen {
			res.Protectors[i] = cov.Candidates[si]
		}
	}
	if errors.Is(err, setcover.ErrUncoverable) {
		// Report how many ends are beyond reach; callers decide whether a
		// partial cover is acceptable.
		coverable := make([]bool, len(p.Ends))
		res.UncoverableEnds = len(p.Ends)
		for _, idxs := range cov.Covers {
			for _, i := range idxs {
				if !coverable[i] {
					coverable[i] = true
					res.UncoverableEnds--
				}
			}
		}
		return res, fmt.Errorf("core: SCBG: %d bridge ends uncoverable: %w", res.UncoverableEnds, err)
	}
	return res, nil
}
