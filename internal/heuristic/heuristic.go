// Package heuristic implements the baseline protector-selection strategies
// the paper compares against: MaxDegree and Proximity, plus the Random
// baseline the paper mentions (and excludes for poor performance) and the
// NoBlocking reference line.
//
// A Selector produces a preference ranking of candidate protector seeds;
// experiments take prefixes of the ranking, either with a fixed budget
// (Figures 4-6) or growing the prefix until every bridge end is protected
// (Table I).
package heuristic

import (
	stdctx "context"
	"fmt"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// Context carries the problem data a selector may use.
type Context struct {
	// Graph is the social network.
	Graph *graph.Graph
	// Rumors is the rumor seed set S_R; rumor seeds are never selected.
	Rumors []int32
	// BridgeEnds is the bridge-end set B. The paper's baselines ignore it.
	BridgeEnds []int32
}

// Selector ranks candidate protector seeds, best first.
type Selector interface {
	// Name identifies the selector in reports.
	Name() string
	// Rank returns candidates in preference order. Rumor seeds are
	// excluded. src supplies randomness for stochastic selectors and may
	// be nil for deterministic ones.
	Rank(ctx Context, src *rng.Source) ([]int32, error)
}

// Select returns the top k candidates of sel's ranking (fewer if the
// ranking is shorter).
func Select(sel Selector, ctx Context, k int, src *rng.Source) ([]int32, error) {
	return SelectContext(stdctx.Background(), sel, ctx, k, src)
}

// SelectContext is Select with cooperative cancellation: the context is
// checked before ranking.
func SelectContext(cctx stdctx.Context, sel Selector, ctx Context, k int, src *rng.Source) ([]int32, error) {
	if sel == nil {
		return nil, fmt.Errorf("heuristic: select: nil selector")
	}
	if err := cctx.Err(); err != nil {
		return nil, fmt.Errorf("heuristic: %s: %w", sel.Name(), err)
	}
	rank, err := sel.Rank(ctx, src)
	if err != nil {
		return nil, fmt.Errorf("heuristic: %s: %w", sel.Name(), err)
	}
	if k < 0 {
		k = 0
	}
	if k > len(rank) {
		k = len(rank)
	}
	return rank[:k], nil
}

// rumorSet builds a membership set of the rumor seeds.
func rumorSet(rumors []int32) map[int32]bool {
	set := make(map[int32]bool, len(rumors))
	for _, r := range rumors {
		set[r] = true
	}
	return set
}

// MaxDegree ranks nodes by decreasing out-degree — "simply chooses the
// nodes according to the decreasing order of node degree as the
// protectors".
type MaxDegree struct{}

var _ Selector = MaxDegree{}

// Name implements Selector.
func (MaxDegree) Name() string { return "MaxDegree" }

// Rank implements Selector.
func (MaxDegree) Rank(ctx Context, _ *rng.Source) ([]int32, error) {
	if ctx.Graph == nil {
		return nil, fmt.Errorf("heuristic: MaxDegree: nil graph")
	}
	isRumor := rumorSet(ctx.Rumors)
	ranked := ctx.Graph.TopByOutDegree(int(ctx.Graph.NumNodes()))
	out := make([]int32, 0, len(ranked))
	for _, u := range ranked {
		if !isRumor[u] {
			out = append(out, u)
		}
	}
	return out, nil
}

// Proximity ranks the direct out-neighbours of the rumor seeds, in random
// order — "the direct out-neighbors of rumors are chosen as the
// protectors", with the paper choosing among them randomly.
type Proximity struct{}

var _ Selector = Proximity{}

// Name implements Selector.
func (Proximity) Name() string { return "Proximity" }

// Rank implements Selector.
func (Proximity) Rank(ctx Context, src *rng.Source) ([]int32, error) {
	if ctx.Graph == nil {
		return nil, fmt.Errorf("heuristic: Proximity: nil graph")
	}
	if src == nil {
		return nil, fmt.Errorf("heuristic: Proximity: nil random source")
	}
	isRumor := rumorSet(ctx.Rumors)
	seen := make(map[int32]bool)
	var out []int32
	for _, r := range ctx.Rumors {
		for _, v := range ctx.Graph.Out(r) {
			if !isRumor[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// Random ranks all non-rumor nodes uniformly at random. The paper excludes
// it from the comparison for poor performance; it is provided for
// completeness.
type Random struct{}

var _ Selector = Random{}

// Name implements Selector.
func (Random) Name() string { return "Random" }

// Rank implements Selector.
func (Random) Rank(ctx Context, src *rng.Source) ([]int32, error) {
	if ctx.Graph == nil {
		return nil, fmt.Errorf("heuristic: Random: nil graph")
	}
	if src == nil {
		return nil, fmt.Errorf("heuristic: Random: nil random source")
	}
	isRumor := rumorSet(ctx.Rumors)
	out := make([]int32, 0, ctx.Graph.NumNodes())
	for u := int32(0); u < ctx.Graph.NumNodes(); u++ {
		if !isRumor[u] {
			out = append(out, u)
		}
	}
	src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// NoBlocking selects nothing: the reference line showing unchecked rumor
// spread.
type NoBlocking struct{}

var _ Selector = NoBlocking{}

// Name implements Selector.
func (NoBlocking) Name() string { return "NoBlocking" }

// Rank implements Selector.
func (NoBlocking) Rank(Context, *rng.Source) ([]int32, error) { return nil, nil }
