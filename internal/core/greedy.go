package core

import (
	"context"
	"errors"
	"fmt"
)

// DefaultGreedyHops matches the paper's 31-hop OPOAO simulations.
const DefaultGreedyHops = 31

// GreedyOptions tunes the LCRB-P greedy algorithm.
type GreedyOptions struct {
	// Alpha is the fraction of bridge ends to protect, in (0, 1).
	// Defaults to 0.9.
	Alpha float64
	// Samples is the number of fixed realizations behind the σ̂ estimate.
	// Defaults to 30.
	Samples int
	// Seed drives the realizations; the same seed reproduces the run.
	Seed uint64
	// MaxHops bounds each simulated diffusion. Defaults to
	// DefaultGreedyHops.
	MaxHops int
	// Plain disables lazy evaluation and re-evaluates every candidate each
	// round, exactly as algorithm 1 is written: every remaining row is
	// recounted every round. Output is identical; only the evaluation
	// count changes. Kept for the ablation benchmark.
	Plain bool
	// MaxProtectors caps the seed-set size. 0 means |B|.
	MaxProtectors int
	// OnRound, when non-nil, is called synchronously after every committed
	// selection round, on the goroutine running the selection, with a
	// snapshot of the round and the prefix selected so far. Because greedy
	// selections are prefixes of the uninterrupted run (the partial-result
	// contract), every reported prefix is itself a valid protector set —
	// serving layers stream these as incremental answers. The callback must
	// not block: the selection waits on it. It never affects the selection
	// itself, which stays bit-identical with or without a callback.
	OnRound func(GreedyRound)
	// Workers parallelizes on up to this many goroutines: the
	// realizations are sampled and the pair index is built concurrently;
	// the selection itself is serial. 0 or 1 means serial; negative means
	// GOMAXPROCS. The selection — Protectors, Gains, Evaluations,
	// ProtectedEnds — is bit-identical for every worker count, because each
	// realization's RR sets are a pure function of its seed and are
	// assembled in realization order.
	Workers int
}

// GreedyRound is the snapshot delivered to GreedyOptions.OnRound after one
// selection round commits.
type GreedyRound struct {
	// Round is the 0-based index of the committed round.
	Round int
	// Node is the protector selected this round; Gain its marginal σ̂ gain.
	Node int32
	Gain float64
	// Score is σ̂ of the selected prefix after the commit.
	Score float64
	// Protectors is a copy of the prefix selected so far, in selection
	// order — safe to retain.
	Protectors []int32
}

// GreedyResult is the output of Greedy.
type GreedyResult struct {
	// Protectors is the selected seed set S_P, in selection order.
	Protectors []int32
	// ProtectedEnds is σ̂(S_P): the estimate, over the Samples fixed
	// realizations, of the expected number of bridge ends that end the
	// diffusion uninfected.
	ProtectedEnds float64
	// BaselineEnds is σ̂(∅): bridge ends expected to stay uninfected with
	// no protection at all (OPOAO does not reach everything in bounded
	// hops).
	BaselineEnds float64
	// Achieved reports whether σ̂(S_P) reached the α·|B| target.
	Achieved bool
	// Evaluations counts σ̂ evaluations (the lazy-vs-plain ablation
	// metric). One evaluation is one row count: the first count of every
	// candidate that lies in some RR set, then every recount. The first
	// counts are charged even when the baseline alone meets the target.
	Evaluations int
	// Gains records the marginal gain of each selected protector.
	Gains []float64
	// Partial reports that the selection stopped before reaching its
	// target because the context was canceled or its deadline passed. The
	// seed set selected so far is still valid — greedy selections are
	// prefixes of the uninterrupted run.
	Partial bool
}

// Greedy solves LCRB-P under the OPOAO model (algorithm 1): repeatedly add
// the candidate with the largest marginal gain in expected protected bridge
// ends until an α fraction of B is protected. σ(A) is monotone and
// submodular (Theorem 1), so the greedy solution is within (1 − 1/e) of
// optimal; submodularity also licenses the CELF lazy evaluation used here.
//
// σ̂ is estimated on Samples fixed realizations (common random numbers).
// The greedy counts it exactly as RR-set coverage over those realizations
// and runs as lazy max coverage, with no diffusion re-simulated per
// candidate.
//
// σ̂ counts a bridge end as protected when the rumor fails to infect it
// within MaxHops — whether because the protector cascade claimed it first
// or because the rumor never arrived. This makes the α·|B| stopping rule of
// algorithm 1 well defined for every α even when some ends are rarely
// reached at all; the marginal gains, and hence the selection order, match
// the paper's blocked-set definition of PB(A) exactly.
func Greedy(p *Problem, opts GreedyOptions) (*GreedyResult, error) {
	return GreedyContext(context.Background(), p, opts)
}

// GreedyContext is Greedy with cooperative cancellation: it draws the
// collection of its Samples realizations (DrawCollection), then solves it
// (SolveCollection). The context is its only budget. It is checked before
// every sampled realization and every recount and selection, so
// cancellation latency is one bounded realization.
//
// On interruption — ctx canceled or its deadline exceeded — the
// best-so-far seed set is returned as a non-nil *GreedyResult with Partial
// set, alongside an error wrapping the context's; interrupted while
// sampling, that set is empty. A caller that needs time to act on a
// partial answer derives a context with an earlier deadline.
func GreedyContext(ctx context.Context, p *Problem, opts GreedyOptions) (*GreedyResult, error) {
	if p == nil {
		return nil, fmt.Errorf("core: greedy: nil problem")
	}
	// Reject a bad α before sampling anything.
	if _, err := opts.lcrbp(p); err != nil {
		return nil, fmt.Errorf("core: greedy: %w", err)
	}
	if opts.Samples == 0 {
		opts.Samples = 30
	}
	// One fixed realization seed per sample: σ̂ of every protector set is
	// counted on the same randomness (common random numbers), which is
	// exactly the fixed (G_R, G_P) pair of Lemma 4.
	c, err := DrawCollection(ctx, p, opts.Samples, opts.Seed, opts.MaxHops, opts.Workers, false)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Interrupted before any selection: the empty seed set is the
		// honest partial answer.
		return &GreedyResult{Protectors: []int32{}, Partial: true}, err
	}
	if err != nil {
		return nil, err
	}
	return SolveCollection(ctx, p, c, opts)
}

// notifyRound delivers one committed round to a non-nil OnRound callback
// with a copied prefix, so the callback may retain it while the selection
// keeps appending.
func notifyRound(onRound func(GreedyRound), selected []int32, gain, score float64) {
	if onRound == nil {
		return
	}
	onRound(GreedyRound{
		Round:      len(selected) - 1,
		Node:       selected[len(selected)-1],
		Gain:       gain,
		Score:      score,
		Protectors: append([]int32(nil), selected...),
	})
}
