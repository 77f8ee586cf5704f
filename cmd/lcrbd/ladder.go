package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"lcrb/internal/checkpoint"
	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/experiment"
	"lcrb/internal/heuristic"
	"lcrb/internal/resilience"
	"lcrb/internal/rng"
)

// requestRNG derives the request's rumor-draw RNG. Requests with equal
// parameters draw equal rumor sets, so the daemon's answers are
// reproducible: replaying a request replays its instance bit for bit.
func (s *server) requestRNG(req *resolvedRequest) *rng.Source {
	return rng.New(req.Seed + 100)
}

// solve runs one request through the deadline-aware ladder:
//
//	warm RR-set sketch (RIS max coverage, zero simulations)
//	  → exact solver (greedy, hedged with SCBG for "auto")
//	    → SCBG cover on greedy interruption
//	      → Proximity/MaxDegree heuristic, which always answers
//
// Every rung past the exact ones tags the response Degraded with the
// reason, so a client under deadline pressure receives an honest cheaper
// answer instead of a bare 5xx. Only instance-build failures (circuit
// open, generator broken) and dead-before-start contexts surface as
// errors.
func (s *server) solve(ctx context.Context, req *resolvedRequest) (*solveResponse, error) {
	prob, inst, staleness, err := s.problem(req)
	if err != nil {
		return nil, err
	}
	resp := &solveResponse{NumRumors: len(prob.Rumors), NumEnds: prob.NumEnds(), Staleness: staleness}
	if prob.NumEnds() == 0 {
		// Nothing bridges out of the rumor community: the empty set is
		// exact for every algorithm.
		resp.Algorithm = req.Algorithm
		resp.Achieved = true
		resp.Protectors = []int32{}
		return resp, nil
	}

	switch req.Algorithm {
	case "greedy":
		return s.solveLadder(ctx, req, inst, prob, resp, false)
	case "auto":
		// The fast rung: a warm sketch answers with pure max coverage and
		// zero simulations. A miss warms the store in the background and
		// falls through to the Monte-Carlo ladder; a solve failure (e.g.
		// cancellation) falls through too rather than failing the request.
		if ans, rerr := s.runRIS(ctx, req, prob, resp); rerr == nil && ans != nil {
			return ans, nil
		} else if rerr != nil {
			s.logf("lcrbd: ris rung failed, falling through: %v", rerr)
		}
		return s.solveLadder(ctx, req, inst, prob, resp, true)
	case "ris":
		// Explicitly requested RIS: serve from the warm store, or degrade
		// honestly — tagged, never silent — while a background build warms
		// it for the next request.
		ans, rerr := s.runRIS(ctx, req, prob, resp)
		if rerr == nil && ans != nil {
			return ans, nil
		}
		reason := "sketch store cold: build started in background"
		if !s.sketches.enabled() {
			reason = "sketch rung disabled (-sketch-samples 0)"
		} else if rerr != nil {
			reason = fmt.Sprintf("ris solve failed (%v)", rerr)
		}
		out, lerr := s.solveLadder(ctx, req, inst, prob, resp, true)
		if lerr != nil {
			return nil, lerr
		}
		out.Degraded = true
		if out.DegradedReason != "" {
			out.DegradedReason = reason + "; " + out.DegradedReason
		} else {
			out.DegradedReason = reason + ": served " + out.Algorithm
		}
		return out, nil
	case "scbg":
		sres, serr := s.runSCBG(ctx, req, prob)
		if serr != nil && (sres == nil || sres.UncoverableEnds == 0) {
			return s.degradeToHeuristic(req, inst, prob, resp,
				fmt.Sprintf("scbg failed (%v): served %s ranking", serr, heuristic.Proximity{}.Name()))
		}
		fillSCBG(resp, prob, req.Alpha, sres)
		if sres.UncoverableEnds > 0 {
			resp.Degraded = true
			resp.DegradedReason = fmt.Sprintf("%d bridge ends uncoverable by any candidate", sres.UncoverableEnds)
		}
		return resp, nil
	case "proximity", "maxdegree":
		// An explicitly requested heuristic is the exact answer to the
		// question asked — not a degradation.
		var sel heuristic.Selector = heuristic.Proximity{}
		if req.Algorithm == "maxdegree" {
			sel = heuristic.MaxDegree{}
		}
		ps, herr := s.runHeuristic(sel, inst, prob, req)
		if herr != nil {
			return nil, herr
		}
		resp.Algorithm = sel.Name()
		resp.Protectors = ps
		return resp, nil
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %q", errBadRequest, req.Algorithm)
	}
}

// ladderAnswer is what a successful exact rung returns through the hedge.
type ladderAnswer struct {
	resp    solveResponse
	partial []int32 // greedy's partial prefix, kept for drain checkpoints
}

// solveLadder runs the greedy rung (optionally hedged with SCBG) and
// degrades on interruption or σ̂ failure.
func (s *server) solveLadder(ctx context.Context, req *resolvedRequest, inst *experiment.Instance, prob *core.Problem, resp *solveResponse, hedged bool) (*solveResponse, error) {
	var partial atomic.Pointer[core.GreedyResult]
	runGreedy := func(ctx context.Context) (*ladderAnswer, error) {
		res, err := s.runGreedy(ctx, req, prob)
		if res != nil && res.Partial {
			partial.Store(res)
		}
		if err != nil {
			return nil, err
		}
		a := &ladderAnswer{}
		a.resp = *resp
		a.resp.Algorithm = "greedy"
		a.resp.Protectors = res.Protectors
		a.resp.ProtectedEnds = res.ProtectedEnds
		a.resp.Achieved = res.Achieved
		return a, nil
	}
	runSCBG := func(ctx context.Context) (*ladderAnswer, error) {
		sres, err := s.runSCBG(ctx, req, prob)
		if err != nil && (sres == nil || sres.UncoverableEnds == 0) {
			return nil, err
		}
		a := &ladderAnswer{}
		a.resp = *resp
		fillSCBG(&a.resp, prob, req.Alpha, sres)
		return a, nil
	}

	var answer *ladderAnswer
	var err error
	if hedged {
		// "auto" races the exact greedy against the cheaper SCBG cover:
		// SCBG launches hedgeDelay in (or immediately once greedy fails),
		// and the first rung to finish wins while the loser is canceled.
		h := resilience.Hedge{Delay: s.cfg.hedgeDelay, Attempts: 2, Stats: s.hedge}
		var v any
		v, err = h.DoContext(ctx, func(ctx context.Context, attempt int) (any, error) {
			if attempt == 0 {
				return runGreedy(ctx)
			}
			return runSCBG(ctx)
		})
		if err == nil {
			answer = v.(*ladderAnswer)
			if answer.resp.Algorithm == "scbg" {
				answer.resp.Degraded = true
				answer.resp.DegradedReason = "deadline pressure: SCBG cover finished first"
			}
		}
	} else {
		answer, err = runGreedy(ctx)
		if err != nil {
			reason := fmt.Sprintf("greedy interrupted (%v)", err)
			var serr error
			answer, serr = runSCBG(ctx)
			if serr == nil {
				answer.resp.Degraded = true
				answer.resp.DegradedReason = reason + ": served SCBG cover"
				err = nil
			}
		}
	}

	if err != nil {
		// Both exact rungs failed — deadline, drain, or injected σ̂
		// faults. The heuristic bottom rung always answers.
		s.maybeCheckpoint(req, partial.Load())
		return s.degradeToHeuristic(req, inst, prob, resp,
			fmt.Sprintf("exact solvers unavailable (%v)", err))
	}
	s.maybeCheckpoint(req, partial.Load())
	return &answer.resp, nil
}

// runGreedy is the exact rung: CELF greedy with the request deadline folded
// into its evaluation budget (DeadlineMargin), so it stops early with a
// valid prefix instead of being killed mid-evaluation.
func (s *server) runGreedy(ctx context.Context, req *resolvedRequest, prob *core.Problem) (*core.GreedyResult, error) {
	opts := core.GreedyOptions{
		Alpha:          req.Alpha,
		Samples:        req.Samples,
		Seed:           req.Seed + 200,
		MaxHops:        req.MaxHops,
		Workers:        s.cfg.workers,
		DeadlineMargin: s.cfg.deadlineMargin,
		OnRound:        req.onRound,
	}
	if s.chaos.sigma != nil {
		opts.Realization = s.chaos.sigma.Realization(diffusion.OPOAORealization())
	}
	return core.GreedyContext(ctx, prob, opts)
}

// runSCBG is the SCBG cover rung. Like greedy it gives up deadlineMargin
// before the request deadline, so the heuristic bottom rung answers in time.
func (s *server) runSCBG(ctx context.Context, req *resolvedRequest, prob *core.Problem) (*core.SCBGResult, error) {
	if d, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, d.Add(-s.cfg.deadlineMargin))
		defer cancel()
	}
	return core.SCBGContext(ctx, prob, core.SCBGOptions{Alpha: req.Alpha})
}

// runHeuristic ranks protectors with a cheap structural selector. It runs
// uncancellable (the work is bounded and fast) so the bottom rung of the
// ladder answers even when the request deadline is already gone.
func (s *server) runHeuristic(sel heuristic.Selector, inst *experiment.Instance, prob *core.Problem, req *resolvedRequest) ([]int32, error) {
	// prob.Graph, not inst.Net.Graph: in dynamic mode the served snapshot
	// is the graph the answer is for (they are one and the same statically).
	hctx := heuristic.Context{Graph: prob.Graph, Rumors: prob.Rumors, BridgeEnds: prob.Ends}
	budget := len(prob.Rumors)
	if budget < 1 {
		budget = 1
	}
	//lint:ignore ctxflow the bottom rung is deliberately uncancellable: bounded fast work that must still answer when the request deadline is already gone
	return heuristic.SelectContext(context.Background(), sel, hctx, budget, rng.New(req.Seed+300))
}

// degradeToHeuristic serves the ladder's bottom rung: Proximity, then
// MaxDegree if Proximity itself fails. Only when both cheap heuristics
// fail does the request surface an error.
func (s *server) degradeToHeuristic(req *resolvedRequest, inst *experiment.Instance, prob *core.Problem, resp *solveResponse, reason string) (*solveResponse, error) {
	for _, sel := range []heuristic.Selector{heuristic.Proximity{}, heuristic.MaxDegree{}} {
		ps, err := s.runHeuristic(sel, inst, prob, req)
		if err != nil {
			s.logf("lcrbd: heuristic %s failed: %v", sel.Name(), err)
			continue
		}
		out := *resp
		out.Algorithm = sel.Name()
		out.Protectors = ps
		out.Degraded = true
		out.DegradedReason = fmt.Sprintf("%s: served %s ranking", reason, sel.Name())
		return &out, nil
	}
	return nil, fmt.Errorf("every ladder rung failed: %s", reason)
}

// fillSCBG copies an SCBG cover into the response.
func fillSCBG(resp *solveResponse, prob *core.Problem, alpha float64, sres *core.SCBGResult) {
	resp.Algorithm = "scbg"
	resp.Protectors = sres.Protectors
	resp.Achieved = sres.CoveredEnds >= prob.RequiredEnds(alpha)
}

// maybeCheckpoint persists a greedy partial prefix when the solve was cut
// short by a drain, so the operator can resume the expensive selection
// after restart. It never affects the response: checkpoint failures —
// including injected chaos faults and panics — are logged and swallowed.
func (s *server) maybeCheckpoint(req *resolvedRequest, res *core.GreedyResult) {
	if s.cfg.checkpointDir == "" || res == nil || len(res.Protectors) == 0 || !s.draining.Load() {
		return
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.logf("lcrbd: checkpoint panic contained: %v", rec)
		}
	}()
	if err := s.chaos.checkpoint.Check(); err != nil {
		s.logf("lcrbd: checkpoint fault: %v", err)
		return
	}
	fp := fmt.Sprintf("lcrbd solve dataset=%s scale=%g seed=%d community-size=%d rumor-frac=%g alpha=%g samples=%d hops=%d",
		req.Dataset, req.Scale, req.Seed, req.CommunitySize, req.RumorFraction, req.Alpha, req.Samples, req.MaxHops)
	sweep := &checkpoint.Sweep{Version: checkpoint.Version, Fingerprint: fp}
	sweep.Mark(checkpoint.Unit{Name: "protectors", Output: encodeProtectors(res.Protectors)})
	path := filepath.Join(s.cfg.checkpointDir, fmt.Sprintf("solve-seed%d-%s.json", req.Seed, req.Dataset))
	if err := checkpoint.Save(path, sweep); err != nil {
		s.logf("lcrbd: checkpoint save: %v", err)
		return
	}
	s.logf("lcrbd: drain checkpoint: %d protectors -> %s", len(res.Protectors), path)
}

// encodeProtectors renders a protector set for checkpoint storage, in the
// same space-separated format lcrbrun resumes from.
func encodeProtectors(ps []int32) string {
	out := ""
	for i, p := range ps {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d", p)
	}
	return out
}
