package heuristic

import (
	stdctx "context"
	"fmt"
	"sort"

	"lcrb/internal/diffusion"
	"lcrb/internal/graph"
)

// GVS is a Greedy Viral Stopper in the spirit of Nguyen et al.'s Node
// Protector heuristics (the related work the paper discusses): it greedily
// adds the protector whose inclusion maximizes the expected number of
// *saved* nodes network-wide — not just bridge ends — under a diffusion
// model. It is the strongest general-purpose baseline in this module and
// the natural contrast to the paper's bridge-end-targeted algorithms.
type GVS struct {
	// Model is the diffusion model used to evaluate candidates. Defaults
	// to DOAM.
	Model diffusion.Model
	// Samples is the Monte-Carlo sample count for stochastic models.
	// Defaults to 10. Deterministic models always use a single run.
	Samples int
	// MaxHops bounds each evaluation simulation. Defaults to 31.
	MaxHops int
	// Seed fixes the evaluation randomness (common random numbers across
	// candidates).
	Seed uint64
	// MaxCandidates caps the candidate pool, keeping the highest-degree
	// nodes of the rumor set's 2-hop out-neighbourhood. Defaults to 200.
	MaxCandidates int
}

// SelectContext greedily picks k protector seeds with cooperative
// cancellation: the context is checked before every candidate evaluation
// and inside the Monte-Carlo sweeps. Unlike core.GreedyContext there is no partial-result contract —
// an interrupted baseline ranking is not worth reporting.
func (s GVS) SelectContext(cctx stdctx.Context, ctx Context, k int) ([]int32, error) {
	if ctx.Graph == nil {
		return nil, fmt.Errorf("heuristic: GVS: nil graph")
	}
	if k <= 0 {
		return nil, nil
	}
	model := s.Model
	if model == nil {
		model = diffusion.DOAM{}
	}
	samples := s.Samples
	if samples <= 0 {
		samples = 10
	}
	maxHops := s.MaxHops
	if maxHops <= 0 {
		maxHops = 31
	}
	candidates := s.candidates(ctx)
	if len(candidates) == 0 {
		return nil, nil
	}

	saved := func(protectors []int32) (float64, error) {
		agg, err := diffusion.MonteCarlo{Model: model, Samples: samples, Seed: s.Seed}.
			RunContext(cctx, ctx.Graph, ctx.Rumors, protectors, diffusion.Options{MaxHops: maxHops})
		if err != nil {
			return 0, err
		}
		return float64(ctx.Graph.NumNodes()) - agg.MeanInfected, nil
	}

	var selected []int32
	base, err := saved(nil)
	if err != nil {
		return nil, fmt.Errorf("heuristic: GVS: %w", err)
	}
	remaining := append([]int32(nil), candidates...)
	for len(selected) < k && len(remaining) > 0 {
		bestIdx := -1
		bestScore := base
		for i, u := range remaining {
			score, err := saved(append(selected, u))
			if err != nil {
				return nil, fmt.Errorf("heuristic: GVS: %w", err)
			}
			if score > bestScore {
				bestIdx, bestScore = i, score
			}
		}
		if bestIdx < 0 {
			break // no candidate saves anything further
		}
		selected = append(selected, remaining[bestIdx])
		base = bestScore
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return selected, nil
}

// candidates returns the rumor set's 2-hop out-neighbourhood (excluding
// rumors), largest out-degrees first, capped at MaxCandidates.
func (s GVS) candidates(ctx Context) []int32 {
	limit := s.MaxCandidates
	if limit <= 0 {
		limit = 200
	}
	isRumor := rumorSet(ctx.Rumors)
	dist := graph.DistancesBounded(ctx.Graph, ctx.Rumors, graph.Forward, 2)
	var pool []int32
	for v, d := range dist {
		if d != graph.Unreachable && !isRumor[int32(v)] {
			pool = append(pool, int32(v))
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		di, dj := ctx.Graph.OutDegree(pool[i]), ctx.Graph.OutDegree(pool[j])
		if di != dj {
			return di > dj
		}
		return pool[i] < pool[j]
	})
	if len(pool) > limit {
		pool = pool[:limit]
	}
	return pool
}
