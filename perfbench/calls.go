package main

import (
	"errors"
	"fmt"

	"lcrb/internal/bridge"
	"lcrb/internal/core"
	"lcrb/internal/dyngraph"
	"lcrb/internal/experiment"
	"lcrb/internal/graph"
	"lcrb/internal/heuristic"
	"lcrb/internal/rng"
	"lcrb/internal/setcover"
	"lcrb/internal/sketch"
)

// calls makes the benchmark's in-process calls into the library layers,
// each inside a span named after the layer entry point and with the
// layer's work counted at the same boundary. With a nil tracer the calls
// run bare.
type calls struct {
	tr *tracer
}

// newProblem draws the rumor seeds and finds the bridge ends: the
// per-request problem construction the daemon runs.
func (c calls) newProblem(inst *experiment.Instance, g *graph.Graph, frac float64, src *rng.Source, parent int, req int64) (*core.Problem, error) {
	id := c.tr.begin("core.NewProblem", parent, req)
	defer c.tr.end(id)
	if g == nil {
		return inst.NewProblem(frac, src)
	}
	return inst.NewProblemOn(g, frac, src)
}

// buildSketch builds an RR-set sketch.
func (c calls) buildSketch(p *core.Problem, opts sketch.Options, parent int, req int64) (*sketch.Set, error) {
	id := c.tr.begin("sketch.Build", parent, req)
	set, err := sketch.Build(p, opts)
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	c.tr.count("sketch.Build.realizations", float64(set.Samples))
	c.tr.count("sketch.Build.pairs", float64(len(set.Pairs)))
	return set, nil
}

// solveRIS runs the RIS max-coverage selection on a sketch.
func (c calls) solveRIS(p *core.Problem, set *sketch.Set, alpha float64, parent int, req int64) (*core.GreedyResult, error) {
	id := c.tr.begin("sketch.SolveGreedyRIS", parent, req)
	res, err := sketch.SolveGreedyRIS(p, set, sketch.SolveOptions{Alpha: alpha})
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	c.tr.count("sketch.SolveGreedyRIS.evaluations", float64(res.Evaluations))
	return res, nil
}

// scbgResult is the part of an SCBG cover the benchmark checks.
type scbgResult struct {
	Protectors []int32
	Covered    int
}

// scbg runs LCRB-D's set-cover greedy. Untraced it calls core.SCBG; traced
// it makes the same three calls core.SCBG makes — BBST construction,
// inversion into coverage sets, partial greedy set cover — each in its own
// span under a core.SCBG span, so their self times can be told apart.
// Callers compare the two paths' answers on equal problems.
func (c calls) scbg(p *core.Problem, alpha float64, parent int, req int64) (*scbgResult, error) {
	if c.tr == nil {
		res, err := core.SCBG(p, core.SCBGOptions{Alpha: alpha})
		if err != nil {
			return nil, err
		}
		return &scbgResult{Protectors: res.Protectors, Covered: res.CoveredEnds}, nil
	}
	top := c.tr.begin("core.SCBG", parent, req)
	defer c.tr.end(top)
	if len(p.Ends) == 0 {
		return nil, core.ErrNoBridgeEnds
	}
	id := c.tr.begin("bridge.Build", top, req)
	trees, err := bridge.Build(p.Graph, p.Rumors, p.Ends)
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = c.tr.begin("bridge.Invert", top, req)
	cov := trees.Invert()
	c.tr.end(id)
	id = c.tr.begin("setcover.GreedyPartial", top, req)
	sol, err := setcover.GreedyPartial(setcover.Instance{Universe: len(p.Ends), Sets: cov.Covers}, p.RequiredEnds(alpha))
	c.tr.end(id)
	if err != nil && !errors.Is(err, setcover.ErrUncoverable) || sol == nil {
		return nil, fmt.Errorf("set cover: %w", err)
	}
	out := &scbgResult{Covered: sol.Covered, Protectors: make([]int32, len(sol.Chosen))}
	for i, si := range sol.Chosen {
		out.Protectors[i] = cov.Candidates[si]
	}
	return out, nil
}

// greedy runs LCRB-P's Monte-Carlo CELF greedy. Every σ̂ evaluation runs
// opts.Samples diffusion simulations.
func (c calls) greedy(p *core.Problem, opts core.GreedyOptions, parent int, req int64) (*core.GreedyResult, error) {
	id := c.tr.begin("core.Greedy", parent, req)
	res, err := core.Greedy(p, opts)
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	c.tr.count("core.Greedy.evaluations", float64(res.Evaluations))
	c.tr.count("diffusion.simulations", float64(res.Evaluations*opts.Samples))
	return res, nil
}

// selectHeuristic ranks protectors with a baseline selector and keeps the
// top budget.
func (c calls) selectHeuristic(sel heuristic.Selector, p *core.Problem, budget int, src *rng.Source, parent int, req int64) ([]int32, error) {
	id := c.tr.begin("heuristic."+sel.Name(), parent, req)
	defer c.tr.end(id)
	return heuristic.Select(sel, heuristic.Context{Graph: p.Graph, Rumors: p.Rumors, BridgeEnds: p.Ends}, budget, src)
}

// applyDelta applies one mutation batch to a dynamic master.
func (c calls) applyDelta(m *dyngraph.Master, d dyngraph.Delta, parent int, req int64) (*dyngraph.Snapshot, *dyngraph.Summary, error) {
	id := c.tr.begin("dyngraph.ApplyDelta", parent, req)
	defer c.tr.end(id)
	return m.ApplyDelta(d)
}

// repair patches a sketch onto a mutated graph.
func (c calls) repair(oldP, newP *core.Problem, set *sketch.Set, dirty []int32, version uint64, workers int, parent int, req int64) (*sketch.Set, error) {
	id := c.tr.begin("sketch.Repair", parent, req)
	out, st, err := sketch.Repair(oldP, newP, set, dirty, version, workers)
	c.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	c.tr.count("sketch.Repair.realizations", float64(st.Samples))
	c.tr.count("sketch.Repair.kept", float64(st.Kept))
	if st.FullRebuild {
		c.tr.count("sketch.Repair.full_rebuilds", 1)
	}
	return out, nil
}
