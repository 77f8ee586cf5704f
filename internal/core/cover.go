package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"lcrb/internal/rrset"
)

// Collection is the RR-set collection of Samples sampled realizations,
// the one input of the LCRB-P greedy: σ̂(S) × Samples over those
// realizations is exactly BaselinePairs, the (realization, end) pairs the
// rumor never reaches, plus the pairs whose RR set S intersects (the RR-set
// ≡ CRN identity that internal/sketch's TestSigmaEqualsCRNRealizationCount
// pins). GreedyContext draws one per solve; a stored sketch is one kept
// for many solves.
type Collection struct {
	// Samples is the realization count N; Seed and MaxHops are the seed
	// stream and horizon the realizations were drawn with.
	Samples int
	Seed    uint64
	MaxHops int
	// BaselinePairs counts the pairs saved under every protector set.
	BaselinePairs int
	// Index inverts the coverable pairs, in (realization, end) order; its
	// Source is the pair slice itself.
	Index *rrset.Index
	// Footprints[r] is realization r's sampling footprint when drawn with
	// footprints, nil otherwise (see rrset.Scratch.Sample).
	Footprints [][]int32
}

// DrawCollection samples the realizations of p's first samples seeds of
// the stream rrset.Seeds(seed, ·) up to maxHops (0 means
// DefaultGreedyHops) on up to workers goroutines (0 or 1 serial, negative
// GOMAXPROCS), assembles their pairs in realization order and indexes
// them. The collection is bit-identical for every worker count, because
// each realization's RR sets are a pure function of its seed.
//
// The context is checked before every realization; an interrupted draw
// returns an error wrapping the context's and no collection, since a
// truncated one would bias every estimate.
func DrawCollection(ctx context.Context, p *Problem, samples int, seed uint64, maxHops, workers int, footprints bool) (*Collection, error) {
	if samples < 0 {
		return nil, fmt.Errorf("core: draw: samples = %d must not be negative", samples)
	}
	if maxHops == 0 {
		maxHops = DefaultGreedyHops
	}
	if maxHops < 0 {
		return nil, fmt.Errorf("core: draw: max hops = %d must not be negative", maxHops)
	}
	if len(p.Ends) == 0 {
		return nil, ErrNoBridgeEnds
	}
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(workers, 1)

	smp := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, maxHops, footprints)
	reals, err := smp.Draw(ctx, rrset.Seeds(seed, samples), nil, workers)
	if err != nil {
		return nil, fmt.Errorf("core: draw: sample realizations: %w", err)
	}
	c := &Collection{Samples: samples, Seed: seed, MaxHops: maxHops}
	numPairs := 0
	for _, r := range reals {
		numPairs += len(r.Pairs)
	}
	pairs := slices.Grow([]rrset.Pair(nil), numPairs) // nil when every pair is baseline-safe
	for _, r := range reals {
		c.BaselinePairs += r.Baseline
		pairs = append(pairs, r.Pairs...)
		if footprints {
			c.Footprints = append(c.Footprints, r.Footprint)
		}
	}
	c.Index = rrset.NewIndex(pairs, workers)
	return c, nil
}

// SolveCollection is algorithm 1 on a collection: greedy max coverage of
// its pairs by rrset's lazy cover, with integer gains over every node in
// some RR set — the unrestricted argmax, since a node in no RR set has
// zero gain — until σ̂(S) reaches the α·|B| target. It reads Alpha,
// MaxProtectors, Plain and OnRound from opts. The target is the exact
// integer comparison σ̂(S) ≥ RequiredEnds(α) ⇔ covered pairs ≥
// RequiredEnds(α)·N − BaselinePairs, so the stopping rule needs no float
// tolerance. The cover runs even when the baseline alone meets the target:
// it then charges every row's first count and selects nothing.
//
// Every coverable pair's RR set contains its own end, so with the default
// cap of |B| protectors the selection either reaches the target or covers
// every pair. On cancellation the best-so-far prefix is returned with
// Partial set, alongside the context's error.
func SolveCollection(ctx context.Context, p *Problem, c *Collection, opts GreedyOptions) (*GreedyResult, error) {
	if p == nil {
		return nil, fmt.Errorf("core: solve: nil problem")
	}
	opts, err := opts.lcrbp(p)
	if err != nil {
		return nil, fmt.Errorf("core: solve: %w", err)
	}
	n := float64(c.Samples)
	target := p.RequiredEnds(opts.Alpha)*c.Samples - c.BaselinePairs
	copts := rrset.CoverOptions{Target: target, MaxSelect: opts.MaxProtectors, Plain: opts.Plain}
	if opts.OnRound != nil {
		copts.OnSelect = func(cov rrset.Cover) {
			notifyRound(opts.OnRound, cov.Selected, float64(cov.Gains[len(cov.Gains)-1])/n, float64(c.BaselinePairs+cov.Covered)/n)
		}
	}
	cov, err := c.Index.Cover(ctx, copts)

	res := &GreedyResult{
		Protectors:    cov.Selected,
		ProtectedEnds: float64(c.BaselinePairs+cov.Covered) / n,
		BaselineEnds:  float64(c.BaselinePairs) / n,
		Achieved:      cov.Covered >= target,
		Evaluations:   cov.Evaluations,
		Partial:       err != nil,
	}
	if res.Protectors == nil {
		res.Protectors = []int32{}
	}
	for _, g := range cov.Gains {
		res.Gains = append(res.Gains, float64(g)/n)
	}
	if err != nil {
		return res, fmt.Errorf("core: solve: %w", err)
	}
	return res, nil
}

// lcrbp returns opts with the LCRB-P defaults applied — α = 0.9 and a cap
// of |B| protectors — or the α validation error.
func (opts GreedyOptions) lcrbp(p *Problem) (GreedyOptions, error) {
	if opts.Alpha == 0 {
		opts.Alpha = 0.9
	}
	if err := ValidateAlphaOpen(opts.Alpha); err != nil {
		return opts, err
	}
	if opts.MaxProtectors <= 0 {
		opts.MaxProtectors = len(p.Ends)
	}
	return opts, nil
}
