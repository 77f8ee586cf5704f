package diffusion

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

// ErrPanic is wrapped into the error returned by MonteCarlo when a model
// panics inside a sample worker: the panic is recovered and contained
// instead of tearing down the process. Test with errors.Is.
var ErrPanic = errors.New("diffusion: model panicked")

// MonteCarlo repeatedly runs a stochastic model and averages the results.
// Deterministic models work too (every sample is then identical).
type MonteCarlo struct {
	// Model is the diffusion model to sample.
	Model Model
	// Samples is the number of independent runs. Must be positive.
	Samples int
	// Seed derives one independent random stream per sample, so the whole
	// estimate is reproducible.
	Seed uint64
	// Workers runs samples concurrently on up to this many goroutines.
	// 0 or 1 means serial; negative means GOMAXPROCS. Every sample's
	// stream is derived from (Seed, sample index), so the aggregate is
	// identical regardless of worker count.
	Workers int
}

// Aggregate is the average of many simulation runs.
type Aggregate struct {
	// Samples is the number of runs averaged.
	Samples int
	// MeanInfected and MeanProtected are the mean final cascade sizes.
	MeanInfected  float64
	MeanProtected float64
	// MeanInfectedAtHop[h] is the mean cumulative infected count after hop
	// h; series from shorter runs are padded with their final value, so
	// every run contributes to every index. Only filled when
	// Options.RecordHops is set. MeanProtectedAtHop likewise.
	MeanInfectedAtHop  []float64
	MeanProtectedAtHop []float64
	// InfectedProb[v] estimates the probability that node v ends infected.
	InfectedProb []float64
}

// RunContext samples the model Samples times and averages. With Workers >
// 1 the samples run concurrently; the aggregate is bit-identical to the
// serial run because each sample's randomness depends only on (Seed,
// index). Options.Observer, when set, is invoked from multiple goroutines
// in that case and must be safe for concurrent use. RunContext also
// provides cooperative cancellation and panic containment:
//
//   - Cancellation is checked between samples and inside each sample's
//     step loop, so a canceled context returns promptly with an error
//     wrapping ctx.Err(). All worker goroutines are joined before
//     RunContext returns — no leaks.
//   - A panicking model is recovered into an error wrapping ErrPanic
//     (with the panic value and stack) instead of crashing the process.
//   - A failure in any worker cancels the remaining workers' samples, so
//     the first real error surfaces without waiting for the full sweep.
//
// Completed runs are bit-identical regardless of worker count.
func (mc MonteCarlo) RunContext(ctx context.Context, g *graph.Graph, rumors, protectors []int32, opts Options) (*Aggregate, error) {
	if mc.Model == nil {
		return nil, fmt.Errorf("diffusion: MonteCarlo requires a model")
	}
	if mc.Samples <= 0 {
		return nil, fmt.Errorf("diffusion: MonteCarlo samples = %d must be positive", mc.Samples)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("diffusion: MonteCarlo: %w", err)
	}
	// Per-sample stream seeds. rng.New(seeds[i]) reproduces the stream the
	// serial implementation would have obtained from base.Split().
	seeds := make([]uint64, mc.Samples)
	base := rng.New(mc.Seed)
	for i := range seeds {
		seeds[i] = base.Uint64()
	}

	workers := mc.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > mc.Samples {
		workers = mc.Samples
	}

	// A failing worker cancels its siblings; they stop at their next
	// sample boundary instead of finishing the sweep.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	partials := make([]*Aggregate, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("diffusion: sample worker %d: %w: %v\n%s", w, ErrPanic, r, debug.Stack())
					cancel()
				}
			}()
			partials[w], errs[w] = mc.runChunk(ctx, g, rumors, protectors, opts, seeds, w, workers)
			if errs[w] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}

	agg := newAggregate(mc.Samples, g.NumNodes(), opts)
	for _, part := range partials {
		agg.MeanInfected += part.MeanInfected
		agg.MeanProtected += part.MeanProtected
		for i, v := range part.InfectedProb {
			agg.InfectedProb[i] += v
		}
		for i := range part.MeanInfectedAtHop {
			agg.MeanInfectedAtHop[i] += part.MeanInfectedAtHop[i]
			agg.MeanProtectedAtHop[i] += part.MeanProtectedAtHop[i]
		}
	}
	inv := 1 / float64(mc.Samples)
	agg.MeanInfected *= inv
	agg.MeanProtected *= inv
	for i := range agg.InfectedProb {
		agg.InfectedProb[i] *= inv
	}
	for i := range agg.MeanInfectedAtHop {
		agg.MeanInfectedAtHop[i] *= inv
		agg.MeanProtectedAtHop[i] *= inv
	}
	return agg, nil
}

// firstError picks the error to surface from a worker sweep: the first
// genuine failure by worker index, falling back to the first cancellation
// error. Cancellation errors rank last because a real failure cancels the
// sibling workers — their ctx errors are fallout, not the cause.
func firstError(errs []error) error {
	var cancelErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelErr == nil {
				cancelErr = err
			}
			continue
		}
		return err
	}
	return cancelErr
}

// newAggregate allocates an aggregate with the right series lengths.
func newAggregate(samples int, numNodes int32, opts Options) *Aggregate {
	agg := &Aggregate{
		Samples:      samples,
		InfectedProb: make([]float64, numNodes),
	}
	if opts.RecordHops {
		// Cumulative series have one entry per hop plus the seed entry.
		agg.MeanInfectedAtHop = make([]float64, opts.maxHops()+1)
		agg.MeanProtectedAtHop = make([]float64, opts.maxHops()+1)
	}
	return agg
}

// runChunk accumulates (without normalizing) every sample whose index is
// congruent to offset modulo stride, checking for cancellation at every
// sample boundary.
func (mc MonteCarlo) runChunk(ctx context.Context, g *graph.Graph, rumors, protectors []int32, opts Options, seeds []uint64, offset, stride int) (*Aggregate, error) {
	agg := newAggregate(0, g.NumNodes(), opts)
	for i := offset; i < len(seeds); i += stride {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("diffusion: sample %d: %w", i, err)
		}
		res, err := RunModelContext(ctx, mc.Model, g, rumors, protectors, rng.New(seeds[i]), opts)
		if err != nil {
			return nil, fmt.Errorf("diffusion: sample %d: %w", i, err)
		}
		agg.MeanInfected += float64(res.Infected)
		agg.MeanProtected += float64(res.Protected)
		for v, st := range res.Status {
			if st == Infected {
				agg.InfectedProb[v]++
			}
		}
		if opts.RecordHops {
			accumulatePadded(agg.MeanInfectedAtHop, res.InfectedAtHop)
			accumulatePadded(agg.MeanProtectedAtHop, res.ProtectedAtHop)
		}
	}
	return agg, nil
}

// accumulatePadded adds series into acc, extending a shorter series with
// its final value (a terminated cascade keeps its cumulative count).
func accumulatePadded(acc []float64, series []int32) {
	if len(series) == 0 {
		return
	}
	last := series[len(series)-1]
	for i := range acc {
		v := last
		if i < len(series) {
			v = series[i]
		}
		acc[i] += float64(v)
	}
}
