// Package sketch is the reverse-reachable (RR) set estimation layer of the
// LCRB-P solver: a sampling engine that turns protector selection into
// max-coverage over precomputed sketches, following the randomized
// rumor-blocking algorithms of Tong et al. (arXiv:1701.02368) and the
// distributed sketch reuse of arXiv:1711.07412.
//
// The Monte-Carlo estimator in internal/core pays for σ̂(S) with a fresh
// sweep of diffusion simulations per candidate seed set — thousands of
// simulations per solve. This package inverts the cost: a one-time build
// samples N fixed OPOAO realizations, and for every (realization, bridge
// end) pair records the RR set — the protector seeds that would save that
// end in that realization. Afterwards σ̂(S) is a pure set-coverage count,
//
//	σ̂(S) = (baseline-safe pairs + pairs whose RR set intersects S) / N,
//
// and a whole greedy solve costs zero diffusion simulations. Build once,
// answer many solves cheaply. Sampling, the CSR index and the lazy-greedy
// cover live in internal/rrset, which the default path of
// core.GreedyContext shares; this package adds what a stored sketch needs:
// the Set, its fingerprint and store, σ̂ queries, incremental repair and
// the RIS solve.
//
// N is fixed by Options.Samples (default DefaultSamples), as the paper
// fixes the number of OPOAO samples behind σ̂.
//
// # Sampler semantics
//
// Each realization is a fixed OPOAO realization sampled by rrset.Sampler;
// the rrset package documentation defines its pairs and RR sets. Seeding S
// saves a pair exactly when S intersects its RR set, so σ̂(S) equals the
// Monte-Carlo greedy's common-random-numbers count over the same
// realization seeds (TestSigmaEqualsCRNRealizationCount).
//
// # Determinism contract
//
// Builds follow the PR-3 common-random-numbers discipline: realization
// seeds are drawn once from rng.New(Options.Seed), every RR set is a pure
// function of (realization seed, problem), and workers write into
// per-realization slots that are assembled in realization order. A
// completed build is bit-identical for every Workers value, byte for byte
// through Save.
package sketch

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lcrb/internal/core"
	"lcrb/internal/rrset"
)

// DefaultSamples is the default realization count of a fixed build. RR
// coverage counts average over realizations exactly like Monte-Carlo σ̂
// averages over samples; more realizations tighten the estimate at linear
// build cost and zero per-solve cost.
const DefaultSamples = 128

// Options tunes a sketch build.
type Options struct {
	// Samples is the number of fixed realizations sampled. Zero means
	// DefaultSamples; negative is an error.
	Samples int
	// Seed drives the realization seeds; the same seed reproduces the
	// build bit for bit.
	Seed uint64
	// MaxHops bounds the temporal horizon of every realization. Defaults
	// to core.DefaultGreedyHops, matching the Monte-Carlo estimator.
	MaxHops int
	// Workers bounds the build's concurrency: 0 or 1 means serial,
	// negative means GOMAXPROCS. The built sketch is bit-identical for
	// every value.
	Workers int
	// MaxDuration caps the build's wall clock. 0 means unlimited. A
	// build that exceeds it fails with an error wrapping
	// core.ErrBudgetExhausted — there is no partial sketch: a sketch with
	// fewer realizations than requested would silently change every σ̂ it
	// later serves.
	MaxDuration time.Duration
	// Footprints records, per realization, the set of nodes whose adjacency
	// the sampler read with effect: the forward-activated set, every RR-set
	// member, and the relays that could reach them (see scratch.sample). A
	// realization whose footprint avoids a graph mutation re-samples
	// identically on the mutated graph, which is what lets Repair patch a
	// sketch incrementally (see incremental.go). Costs one sorted []int32
	// per realization in memory and in the store.
	Footprints bool
}

// Pair is one (realization, bridge end) sample whose fate depends on the
// protector set; see rrset.Pair.
type Pair = rrset.Pair

// Set is a built sketch: everything needed to answer σ̂ queries for one
// problem without running another diffusion simulation.
type Set struct {
	// Samples is the number of sampled realizations. Seed and MaxHops
	// echo the build options.
	Samples int    `json:"samples"`
	Seed    uint64 `json:"seed"`
	MaxHops int    `json:"maxHops"`
	// NumEnds is |B| of the problem the sketch was built for.
	NumEnds int `json:"numEnds"`
	// Fingerprint binds the sketch to (graph, rumor set, ends, model) and
	// to (seed, samples, hops); see Fingerprint.
	Fingerprint string `json:"fingerprint"`
	// BaselinePairs counts the (realization, end) pairs the rumor never
	// reaches within MaxHops — saved under every protector set, the
	// sketch analogue of GreedyResult.BaselineEnds.
	BaselinePairs int `json:"baselinePairs"`
	// Pairs holds the coverable pairs in (realization, end) order.
	Pairs []Pair `json:"pairs"`

	// Footprints[r], present when built with Options.Footprints, is the
	// sorted node set realization r's sampling read with effect — the
	// incremental-repair index of incremental.go. Version, when nonzero,
	// is the dyngraph master version the sketch is current for; static
	// builds leave it zero (and both fields out of the store bytes).
	Footprints [][]int32 `json:"footprints,omitempty"`
	Version    uint64    `json:"graphVersion,omitempty"`

	// index inverts Pairs into CSR rows with bitset kernels. A pure
	// function of Pairs: rebuilt on load, never serialized.
	index *rrset.Index
}

// Sigma estimates σ̂(S) from the sketch: the expected number of bridge
// ends left uninfected under protector set S, averaged over the sampled
// realizations. It runs no simulations.
func (s *Set) Sigma(protectors []int32) float64 {
	if s.Samples <= 0 {
		return 0
	}
	return float64(s.BaselinePairs+s.coveredPairs(protectors)) / float64(s.Samples)
}

// coveredPairs counts the pairs whose RR set intersects S.
func (s *Set) coveredPairs(protectors []int32) int {
	if s.index == nil {
		return 0
	}
	return s.index.Covered(protectors)
}

// Candidates returns every node that appears in at least one RR set,
// sorted ascending — the nodes with any marginal value under the sketch.
func (s *Set) Candidates() []int32 {
	out := make([]int32, len(s.index.Nodes))
	copy(out, s.index.Nodes)
	return out
}

// buildIndex (re)builds the node → pair inversion on up to workers
// goroutines; the index is identical for every value.
func (s *Set) buildIndex(workers int) {
	s.index = rrset.NewIndex(s.Pairs, workers)
}

// Build samples the sketch for p; see BuildContext.
func Build(p *core.Problem, opts Options) (*Set, error) {
	return BuildContext(context.Background(), p, opts)
}

// BuildContext runs a sketch build under ctx. The context is checked
// before every realization, so cancellation latency is one bounded
// realization. Builds are all-or-nothing: on cancellation, budget expiry
// or a sampling failure the error is returned and no Set — a truncated
// sketch would bias every later estimate.
func BuildContext(ctx context.Context, p *core.Problem, opts Options) (*Set, error) {
	if p == nil {
		return nil, fmt.Errorf("sketch: build: nil problem")
	}
	if opts.Samples < 0 {
		return nil, fmt.Errorf("sketch: build: samples = %d must not be negative", opts.Samples)
	}
	if opts.Samples == 0 {
		opts.Samples = DefaultSamples
	}
	if opts.MaxHops == 0 {
		opts.MaxHops = core.DefaultGreedyHops
	}
	if opts.MaxHops < 0 {
		return nil, fmt.Errorf("sketch: build: max hops = %d must not be negative", opts.MaxHops)
	}
	if len(p.Ends) == 0 {
		return nil, core.ErrNoBridgeEnds
	}
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	var deadline time.Time
	if opts.MaxDuration > 0 {
		deadline = time.Now().Add(opts.MaxDuration)
	}

	smp := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, opts.MaxHops, opts.Footprints)
	reals, err := smp.Draw(rrset.Seeds(opts.Seed, opts.Samples), nil, workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return fmt.Errorf("%w: sketch build wall-clock budget spent before realization %d",
				core.ErrBudgetExhausted, i)
		}
		return nil
	}, core.IsInterruption)
	if err != nil {
		return nil, err
	}

	// Realization slots assemble in order, so the Set is worker-count
	// invariant.
	set := &Set{
		Samples:     opts.Samples,
		Seed:        opts.Seed,
		MaxHops:     opts.MaxHops,
		NumEnds:     len(p.Ends),
		Fingerprint: Fingerprint(p, opts),
	}
	for _, r := range reals {
		set.BaselinePairs += r.Baseline
		set.Pairs = append(set.Pairs, r.Pairs...)
		if opts.Footprints {
			set.Footprints = append(set.Footprints, r.Footprint)
		}
	}
	set.buildIndex(workers)
	return set, nil
}
