package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"lcrb/internal/bridge"
	"lcrb/internal/rrset"
)

// SCBGOptions tunes the Set-Cover-Based Greedy algorithm.
type SCBGOptions struct {
	// Alpha is the required protection level in (0, 1]. The LCRB-D
	// problem of the paper is Alpha = 1 (protect every bridge end), which
	// is the default when Alpha is 0.
	Alpha float64
}

// SCBGResult is the output of SCBG.
type SCBGResult struct {
	// Protectors is the selected protector seed set W, in selection order.
	Protectors []int32
	// CoveredEnds is the number of bridge ends covered by the selection.
	CoveredEnds int
	// Candidates is the number of distinct candidate protectors
	// (|∪ Q_v \ S_R|) the set-cover stage chose from.
	Candidates int
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
// before the BBST construction and before every recount and selection of
// the cover. On cancellation the wrapped context error is returned; unlike
// GreedyContext there is no partial-result contract here because SCBG is
// fast enough that a partial cover is rarely worth reporting — rerun with a
// live context.
//
// The set cover runs on LCRB-P's engine. The BBST of end i is that end's
// RR set under DOAM's one deterministic realization, so the trees become
// the pairs {End: i, Nodes: Q_i} of an rrset.Index, whose inversion is the
// coverage sets SW_u, and rrset's lazy cover selects. Its tie rule, gain
// descending then the smaller node id, is unit-cost greedy set cover's
// over candidates in ascending id order, and both lazy loops select
// exactly what the plain greedy selects.
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
	// bridge.Build rejects an end that is a rumor seed and every tree holds
	// its own end, so every end is coverable and a cover of at most |B|
	// picks always reaches the target.
	pairs := make([]rrset.Pair, len(trees.Trees))
	for i, tree := range trees.Trees {
		pairs[i] = rrset.Pair{End: int32(i), Nodes: tree}
	}
	ix := rrset.NewIndex(pairs, runtime.GOMAXPROCS(0))
	c, err := ix.Cover(ctx, rrset.CoverOptions{Target: p.RequiredEnds(opts.Alpha), MaxSelect: len(p.Ends)})
	if err != nil {
		return nil, fmt.Errorf("core: SCBG: set cover: %w", err)
	}
	return &SCBGResult{Protectors: c.Selected, CoveredEnds: c.Covered, Candidates: len(ix.Nodes)}, nil
}
