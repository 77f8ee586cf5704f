package core

import (
	"context"
	"fmt"

	"lcrb/internal/diffusion"
)

// Evaluation summarizes how a protector seed set performs on an LCRB
// instance under a diffusion model.
type Evaluation struct {
	// MeanInfected and MeanProtected are the mean final cascade sizes.
	MeanInfected  float64
	MeanProtected float64
	// MeanEndsInfected is the mean number of bridge ends infected.
	MeanEndsInfected float64
	// EndsProtectedFraction is 1 - MeanEndsInfected/|B| (1 when the
	// instance has no bridge ends).
	EndsProtectedFraction float64
	// Samples is the number of simulation runs averaged.
	Samples int
}

// EvaluateOptions tunes EvaluateContext.
type EvaluateOptions struct {
	// Model is the diffusion model. Defaults to DOAM.
	Model diffusion.Model
	// Samples is the Monte-Carlo sample count for stochastic models.
	// Defaults to 50. Deterministic models always use one run.
	Samples int
	// Seed drives the Monte-Carlo runs.
	Seed uint64
	// MaxHops bounds each simulation. Defaults to the paper's 31.
	MaxHops int
	// Workers parallelizes the Monte-Carlo runs (see
	// diffusion.MonteCarlo.Workers).
	Workers int
}

// EvaluateContext measures a protector seed set on the instance: cascade
// sizes and bridge-end protection, averaged over Monte-Carlo samples. It is
// the impartial judge used to compare solver outputs — solvers optimize
// their own objectives, EvaluateContext reports what actually happens.
// Cancellation is forwarded to the Monte-Carlo sweep (checked per sample
// and per hop).
func EvaluateContext(ctx context.Context, p *Problem, protectors []int32, opts EvaluateOptions) (*Evaluation, error) {
	if p == nil {
		return nil, fmt.Errorf("core: evaluate: nil problem")
	}
	if opts.Model == nil {
		opts.Model = diffusion.DOAM{}
	}
	// Zero means "use the default"; negative is a caller bug and is
	// rejected, matching GreedyContext — silently coercing it would mask a
	// sign error in a sample-budget computation.
	if opts.Samples < 0 {
		return nil, fmt.Errorf("core: evaluate: samples = %d must not be negative", opts.Samples)
	}
	if opts.Samples == 0 {
		opts.Samples = 50
	}
	if _, deterministic := opts.Model.(diffusion.DOAM); deterministic {
		opts.Samples = 1
	}
	if opts.MaxHops < 0 {
		return nil, fmt.Errorf("core: evaluate: max hops = %d must not be negative", opts.MaxHops)
	}
	if opts.MaxHops == 0 {
		opts.MaxHops = DefaultGreedyHops
	}
	agg, err := diffusion.MonteCarlo{
		Model:   opts.Model,
		Samples: opts.Samples,
		Seed:    opts.Seed,
		Workers: opts.Workers,
	}.RunContext(ctx, p.Graph, p.Rumors, protectors, diffusion.Options{MaxHops: opts.MaxHops})
	if err != nil {
		return nil, fmt.Errorf("core: evaluate: %w", err)
	}
	ev := &Evaluation{
		MeanInfected:  agg.MeanInfected,
		MeanProtected: agg.MeanProtected,
		Samples:       opts.Samples,
	}
	for _, e := range p.Ends {
		ev.MeanEndsInfected += agg.InfectedProb[e]
	}
	if len(p.Ends) > 0 {
		ev.EndsProtectedFraction = 1 - ev.MeanEndsInfected/float64(len(p.Ends))
	} else {
		ev.EndsProtectedFraction = 1
	}
	return ev, nil
}
