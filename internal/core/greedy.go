package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"lcrb/internal/diffusion"
	"lcrb/internal/rrset"
)

// DefaultGreedyHops matches the paper's 31-hop OPOAO simulations.
const DefaultGreedyHops = 31

// ErrBudgetExhausted is returned (wrapped) by GreedyContext when the
// MaxEvaluations or MaxDuration budget runs out before the protection
// target is met. The accompanying GreedyResult is non-nil with Partial set:
// the best-so-far seed set is still usable. Test with errors.Is.
var ErrBudgetExhausted = errors.New("core: evaluation budget exhausted")

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
	// round, exactly as algorithm 1 is written: on the default engine it
	// recounts every remaining row every round. Output is identical;
	// only the evaluation count changes. Kept for the ablation benchmark.
	Plain bool
	// MaxProtectors caps the seed-set size. 0 means |B|.
	MaxProtectors int
	// Realization selects the engine and the diffusion model σ̂ is
	// estimated under. Nil means the paper's OPOAO model on the default
	// engine: the RR sets of the Samples realizations are sampled once and
	// the greedy runs as exact lazy max coverage over them (see
	// internal/rrset), with no diffusion re-simulated per candidate. Any
	// non-nil Realization selects the Monte-Carlo CELF engine, which runs
	// every candidate's σ̂ as Samples fresh realizations: the same answer
	// for diffusion.OPOAORealization(), at Evaluations × Samples
	// simulations; diffusion.ICRealization(p) extends the greedy to the
	// competitive Independent Cascade model (the paper's "other diffusion
	// models" future-work direction).
	Realization diffusion.Realization
	// MaxEvaluations caps the number of σ̂ evaluations (see
	// GreedyResult.Evaluations). 0 means unlimited. When the cap is hit
	// mid-selection, the best-so-far seed set is returned with Partial set
	// and an error wrapping ErrBudgetExhausted.
	MaxEvaluations int
	// MaxDuration caps the wall-clock time of the selection. 0 means
	// unlimited. Expiry follows the same partial-result contract as
	// MaxEvaluations. Prefer a context deadline when the caller already
	// has one; MaxDuration exists for budgeting a single solve inside a
	// longer-lived context.
	MaxDuration time.Duration
	// DeadlineMargin reserves headroom before a context deadline: when
	// positive and ctx carries a deadline, σ̂ evaluation stops
	// DeadlineMargin before it under the partial-result contract (an error
	// wrapping ErrBudgetExhausted), so the caller still has time to act on
	// the partial answer — fall back to a cheaper solver, write a
	// checkpoint — before the deadline kills the request. 0 disables the
	// reservation; negative is an error.
	DeadlineMargin time.Duration
	// OnRound, when non-nil, is called synchronously after every committed
	// selection round, on the goroutine running the selection, with a
	// snapshot of the round and the prefix selected so far. Because greedy
	// selections are prefixes of the uninterrupted run (the partial-result
	// contract), every reported prefix is itself a valid protector set —
	// serving layers stream these as incremental answers. The callback must
	// not block: the selection waits on it. It never affects the selection
	// itself, which stays bit-identical with or without a callback.
	OnRound func(GreedyRound)
	// Workers parallelizes on up to this many goroutines. The default
	// engine samples its realizations and builds its pair index
	// concurrently; the selection itself is serial. The Monte-Carlo engine
	// runs the candidate batches of every plain round and of the CELF
	// initialization round concurrently across seed sets, and single
	// estimates (the baseline, CELF re-evaluations) concurrently across
	// their samples. 0 or 1 means serial; negative means GOMAXPROCS. The
	// selection — Protectors, Gains, Evaluations, ProtectedEnds — is
	// bit-identical for every worker count, because the
	// common-random-numbers realizations are pure functions of
	// (realization seed, seed set) and results and budget charges are
	// committed in a fixed order.
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
	// metric). On the default engine one evaluation is one row count: the
	// first count of every candidate that lies in some RR set, then every
	// recount. On the Monte-Carlo engine it is one estimate over all
	// samples: the baseline, then every candidate set scored.
	Evaluations int
	// Gains records the marginal gain of each selected protector.
	Gains []float64
	// Partial reports that the selection stopped before reaching its
	// target: the context was canceled, a budget expired, or a σ̂
	// evaluation failed. The seed set selected so far is still valid —
	// greedy selections are prefixes of the uninterrupted run.
	Partial bool
}

// Greedy solves LCRB-P under the OPOAO model (algorithm 1): repeatedly add
// the candidate with the largest marginal gain in expected protected bridge
// ends until an α fraction of B is protected. σ(A) is monotone and
// submodular (Theorem 1), so the greedy solution is within (1 − 1/e) of
// optimal; submodularity also licenses the CELF lazy evaluation used here.
//
// σ̂ is estimated on Samples fixed realizations (common random numbers).
// By default the greedy counts it exactly as RR-set coverage over those
// realizations and runs as lazy max coverage; an explicit
// GreedyOptions.Realization selects the Monte-Carlo CELF engine, which
// re-simulates them per candidate set and, under OPOAO, selects the same
// protectors.
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

// GreedyContext is Greedy with cooperative cancellation and budgets. The
// default engine checks the context and the wall-clock budget before every
// sampled realization and every row count; the Monte-Carlo engine checks
// them before every σ̂ evaluation and between the samples inside one. So
// cancellation latency is one bounded realization.
//
// On interruption — ctx canceled, ctx deadline exceeded, or the
// MaxEvaluations/MaxDuration budget exhausted — the best-so-far seed set is
// returned as a non-nil *GreedyResult with Partial set, alongside an error
// wrapping the cause (context.Canceled, context.DeadlineExceeded or
// ErrBudgetExhausted). A failing σ̂ evaluation (for example from a broken
// custom Realization) follows the same contract instead of panicking; a
// *panicking* realization is recovered into an error wrapping
// diffusion.ErrPanic, so a buggy engine cannot tear down the evaluation
// worker pool.
func GreedyContext(ctx context.Context, p *Problem, opts GreedyOptions) (*GreedyResult, error) {
	if p == nil {
		return nil, fmt.Errorf("core: greedy: nil problem")
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.9
	}
	if err := ValidateAlphaOpen(opts.Alpha); err != nil {
		return nil, fmt.Errorf("core: greedy: %w", err)
	}
	if opts.Samples == 0 {
		opts.Samples = 30
	}
	if opts.Samples < 0 {
		return nil, fmt.Errorf("core: greedy: samples = %d must not be negative", opts.Samples)
	}
	if opts.MaxHops == 0 {
		opts.MaxHops = DefaultGreedyHops
	}
	if len(p.Ends) == 0 {
		return nil, ErrNoBridgeEnds
	}
	maxProtectors := opts.MaxProtectors
	if maxProtectors <= 0 {
		maxProtectors = len(p.Ends)
	}

	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if opts.DeadlineMargin < 0 {
		return nil, fmt.Errorf("core: greedy: deadline margin = %v must not be negative", opts.DeadlineMargin)
	}
	var deadline time.Time
	if opts.MaxDuration > 0 {
		deadline = time.Now().Add(opts.MaxDuration)
	}
	if d, ok := ctx.Deadline(); ok && opts.DeadlineMargin > 0 {
		// Fold the context deadline, minus the reserved margin, into the
		// wall-clock budget: expiry then surfaces as ErrBudgetExhausted
		// with the best-so-far seed set while the context is still alive.
		d = d.Add(-opts.DeadlineMargin)
		if deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	// One fixed realization seed per sample: σ̂ of every protector set is
	// counted on the same randomness (common random numbers), which is
	// exactly the fixed (G_R, G_P) pair of Lemma 4.
	realSeeds := rrset.Seeds(opts.Seed, opts.Samples)
	if opts.Realization == nil {
		return coverGreedy(ctx, p, opts, realSeeds, maxProtectors, workers, deadline)
	}
	candidates := greedyCandidates(p)

	ev := &sigmaEvaluator{
		//lint:ignore ctxflow the evaluator lives for exactly one Greedy call; the field is call-scoped plumbing to worker goroutines, not a pinned lifetime
		ctx:       ctx,
		p:         p,
		realSeeds: realSeeds,
		maxHops:   opts.MaxHops,
		run:       opts.Realization,
		workers:   workers,
		maxEvals:  opts.MaxEvaluations,
		deadline:  deadline,
		cache:     make(map[string]int),
	}

	res := &GreedyResult{}
	baseline, err := ev.estimate(nil)
	if err != nil {
		res.Evaluations = ev.evals
		if IsInterruption(err) {
			// Interrupted before any selection: the empty seed set is the
			// honest partial answer.
			res.Partial = true
			return res, fmt.Errorf("core: greedy: evaluate baseline: %w", err)
		}
		// Surfaces configuration problems (e.g. an invalid custom
		// realization) before the selection loops, which assume the
		// evaluator is sound.
		return nil, fmt.Errorf("core: greedy: evaluate baseline: %w", err)
	}
	n := float64(opts.Samples)
	res.BaselineEnds = float64(baseline) / n

	// Scores and gains are counts over the realizations (σ̂ × samples), so
	// the stopping rule and every gain comparison are exact.
	target := p.RequiredEnds(opts.Alpha) * opts.Samples
	score := baseline
	selected := make([]int32, 0, maxProtectors)

	var loopErr error
	if opts.Plain {
		loopErr = res.plainLoop(ev, candidates, &selected, &score, target, maxProtectors, n, opts.OnRound)
	} else {
		loopErr = res.celfLoop(ev, candidates, &selected, &score, target, maxProtectors, n, opts.OnRound)
	}

	res.Protectors = selected
	res.ProtectedEnds = float64(score) / n
	res.Achieved = score >= target
	res.Evaluations = ev.evals
	if loopErr != nil {
		// Best-so-far seed set plus the cause: cancellation and budget
		// expiry are expected operating conditions, not configuration
		// errors, so the partial result travels with the error.
		res.Partial = true
		return res, fmt.Errorf("core: greedy: %w", loopErr)
	}
	return res, nil
}

// IsInterruption reports whether err is an expected interruption —
// context cancellation, deadline expiry, or an exhausted evaluation
// budget — rather than a configuration or evaluation failure. Serving
// layers use it to decide between degrading to a cheaper solver (the
// interruption cases, where a partial result is still honest) and failing
// the request outright.
func IsInterruption(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrBudgetExhausted)
}

// greedyCandidates lists the Monte-Carlo engine's candidates: every node
// that is not a rumor seed, ascending, so algorithm 1's argmax runs over
// the whole graph and every loop breaks gain ties to the smaller node id.
func greedyCandidates(p *Problem) []int32 {
	n := p.Graph.NumNodes()
	out := make([]int32, 0, n)
	for u := int32(0); u < n; u++ {
		if !p.isRumor[u] {
			out = append(out, u)
		}
	}
	return out
}

// plainLoop is algorithm 1 verbatim: every remaining candidate is
// re-evaluated in every round, as one concurrent batch (the scan is
// embarrassingly parallel — no candidate's value depends on another's).
// Each extension gets its own freshly copied seed set; extending with
// append(*selected, u) would alias selected's spare backing capacity
// across the whole batch. An evaluator failure stops the loop with the
// selection made so far intact. Scores are counts over the n samples.
func (r *GreedyResult) plainLoop(ev *sigmaEvaluator, candidates []int32, selected *[]int32, score *int, target, maxProtectors int, n float64, onRound func(GreedyRound)) error {
	remaining := append([]int32(nil), candidates...)
	for *score < target && len(*selected) < maxProtectors && len(remaining) > 0 {
		sets := make([][]int32, len(remaining))
		for i, u := range remaining {
			sets[i] = extendSet(*selected, u)
		}
		vals, err := ev.estimateBatch(sets)
		if err != nil {
			return err
		}
		bestIdx, bestScore := -1, *score
		for i, s := range vals {
			if s > bestScore {
				bestIdx, bestScore = i, s
			}
		}
		if bestIdx < 0 {
			break // no candidate has positive marginal gain
		}
		r.Gains = append(r.Gains, float64(bestScore-*score)/n)
		*selected = append(*selected, remaining[bestIdx])
		notifyRound(onRound, *selected, float64(bestScore-*score)/n, float64(bestScore)/n)
		*score = bestScore
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return nil
}

// celfLoop exploits submodularity: a candidate's previous marginal gain is
// an upper bound on its current one, so candidates are kept in a max-heap
// of stale gains and only re-evaluated when they surface. An evaluator
// failure stops the loop with the selection made so far intact.
//
// Round 0 is batched: the classic formulation seeds the heap with infinite
// stale gains, which forces exactly one evaluation per candidate before
// the first selection (no real gain can exceed |B|, so every sentinel pops
// first). Evaluating that forced sweep as one concurrent batch yields the
// identical heap state — same gains against the same baseline — while
// exposing the algorithm's one embarrassingly parallel phase.
func (r *GreedyResult) celfLoop(ev *sigmaEvaluator, candidates []int32, selected *[]int32, score *int, target, maxProtectors int, n float64, onRound func(GreedyRound)) error {
	if *score >= target || len(*selected) >= maxProtectors || len(candidates) == 0 {
		return nil
	}
	sets := make([][]int32, len(candidates))
	for i, u := range candidates {
		sets[i] = extendSet(*selected, u)
	}
	vals, err := ev.estimateBatch(sets)
	if err != nil {
		return err
	}
	pq := make(celfQueue, len(candidates))
	for i, u := range candidates {
		pq[i] = celfEntry{node: u, gain: vals[i] - *score, round: 0}
	}
	heap.Init(&pq)

	round := 0
	for *score < target && len(*selected) < maxProtectors && pq.Len() > 0 {
		top := heap.Pop(&pq).(celfEntry)
		if top.round == round {
			// Fresh evaluation already on top: select it.
			if top.gain <= 0 {
				break
			}
			r.Gains = append(r.Gains, float64(top.gain)/n)
			*selected = append(*selected, top.node)
			*score += top.gain
			notifyRound(onRound, *selected, float64(top.gain)/n, float64(*score)/n)
			round++
			continue
		}
		s, err := ev.estimate(extendSet(*selected, top.node))
		if err != nil {
			return err
		}
		top.gain = s - *score
		top.round = round
		heap.Push(&pq, top)
	}
	return nil
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

// celfEntry is a CELF priority-queue entry; gain is a count over the
// samples.
type celfEntry struct {
	node  int32
	gain  int
	round int
}

// celfQueue is a max-heap on gain (ties to the smaller node id for
// determinism).
type celfQueue []celfEntry

func (q celfQueue) Len() int { return len(q) }
func (q celfQueue) Less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain
	}
	return q[i].node < q[j].node
}
func (q celfQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *celfQueue) Push(x interface{}) {
	*q = append(*q, x.(celfEntry))
}
func (q *celfQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
