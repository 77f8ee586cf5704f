package main

import (
	"context"
	"fmt"

	"lcrb/internal/core"
	"lcrb/internal/heuristic"
	"lcrb/internal/rng"
)

// requestRNG derives the request's rumor-draw RNG. Requests with equal
// parameters draw equal rumor sets, so the daemon's answers are
// reproducible: replaying a request replays its instance bit for bit.
func (s *server) requestRNG(req *resolvedRequest) *rng.Source {
	return rng.New(req.Seed + 100)
}

// solve runs one request down its ladder. greedy, auto and ris share one
// (solveCover):
//
//	the paper's greedy as lazy max coverage over RR sets — a warm
//	sketch's for auto and ris, the request's own realizations for greedy
//	  → SCBG cover while the sketch is cold, disabled or failed, or the
//	    greedy was interrupted
//	    → Proximity/MaxDegree heuristic, which always answers
//
// Every rung past the first tags the response Degraded with the reason, so
// a client under deadline pressure receives an honest cheaper answer
// instead of a bare 5xx. Only instance-build failures (circuit open,
// generator broken) and dead-before-start contexts surface as errors.
func (s *server) solve(ctx context.Context, req *resolvedRequest) (*solveResponse, error) {
	prob, staleness, err := s.problem(req)
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
	case "greedy", "auto", "ris":
		return s.solveCover(ctx, req, prob, resp)
	case "scbg":
		sres, serr := s.runSCBG(ctx, req, prob)
		if serr != nil && (sres == nil || sres.UncoverableEnds == 0) {
			return s.degradeToHeuristic(req, prob, resp, fmt.Sprintf("scbg failed (%v)", serr))
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
		ps, herr := s.runHeuristic(sel, prob, req)
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

// solveCover serves greedy, auto and ris. The selection comes from one of
// two sources (see selectCover): auto and ris read the warm sketch store
// (answered as "ris"), greedy samples its own realizations per request
// (answered as "greedy"). An exact selection fills the response; a source
// that fails degrades to the SCBG cover, tagged with its reason, and when
// SCBG fails too, to the heuristic bottom rung.
func (s *server) solveCover(ctx context.Context, req *resolvedRequest, prob *core.Problem, resp *solveResponse) (*solveResponse, error) {
	algorithm := "ris"
	if req.Algorithm == "greedy" {
		algorithm = "greedy"
	}
	res, err := s.selectCover(ctx, req, prob, resp.Staleness)
	out := *resp
	if err == nil {
		out.Algorithm = algorithm
		out.Protectors = res.Protectors
		out.ProtectedEnds = res.ProtectedEnds
		out.Achieved = res.Achieved
		return &out, nil
	}
	sres, serr := s.runSCBG(ctx, req, prob)
	if serr != nil && (sres == nil || sres.UncoverableEnds == 0) {
		return s.degradeToHeuristic(req, prob, resp, fmt.Sprintf("%v; scbg failed (%v)", err, serr))
	}
	fillSCBG(&out, prob, req.Alpha, sres)
	out.Degraded = true
	out.DegradedReason = fmt.Sprintf("%v: served SCBG cover", err)
	return &out, nil
}

// selectCover runs solveCover's LCRB-P selection: runRIS for auto and ris,
// runGreedy for greedy. The chaos solve fault fires here, before the
// library call, and a panic on this goroutine — injected, or a real one
// from the selection — is recovered into the selection's error, so the
// ladder degrades to SCBG instead of the request answering a bare 500.
func (s *server) selectCover(ctx context.Context, req *resolvedRequest, prob *core.Problem, staleness *stalenessInfo) (res *core.GreedyResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, fmt.Errorf("%s selection panicked (%v)", req.Algorithm, rec)
		}
	}()
	if s.holdSolve {
		// Test seam: keep the solve in flight until its context ends.
		<-ctx.Done()
	}
	if err := s.chaos.solve.Check(); err != nil {
		return nil, fmt.Errorf("%s selection failed (%w)", req.Algorithm, err)
	}
	if req.Algorithm != "greedy" {
		return s.runRIS(ctx, req, prob, staleness)
	}
	if res, err = s.runGreedy(ctx, req, prob); err != nil {
		err = fmt.Errorf("greedy interrupted (%w)", err)
	}
	return res, err
}

// runGreedy selects by core.GreedyContext on the request's own Samples
// realizations (seed Seed + 200), with the request deadline folded into its
// budget (DeadlineMargin), so it stops early with a valid prefix instead of
// being killed mid-selection. OnRound streams each committed round.
func (s *server) runGreedy(ctx context.Context, req *resolvedRequest, prob *core.Problem) (*core.GreedyResult, error) {
	return core.GreedyContext(ctx, prob, core.GreedyOptions{
		Alpha:          req.Alpha,
		Samples:        req.Samples,
		Seed:           req.Seed + 200,
		MaxHops:        req.MaxHops,
		Workers:        s.cfg.workers,
		DeadlineMargin: s.cfg.deadlineMargin,
		OnRound:        req.onRound,
	})
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
func (s *server) runHeuristic(sel heuristic.Selector, prob *core.Problem, req *resolvedRequest) ([]int32, error) {
	// prob.Graph is the graph the answer is for: in dynamic mode, the
	// served snapshot rather than the instance's original network.
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
func (s *server) degradeToHeuristic(req *resolvedRequest, prob *core.Problem, resp *solveResponse, reason string) (*solveResponse, error) {
	for _, sel := range []heuristic.Selector{heuristic.Proximity{}, heuristic.MaxDegree{}} {
		ps, err := s.runHeuristic(sel, prob, req)
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
