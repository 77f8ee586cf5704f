package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/experiment"
	"lcrb/internal/gen"
	"lcrb/internal/heuristic"
	"lcrb/internal/rng"
	"lcrb/internal/sketch"
)

// The offline-enron instance: the paper's Enron network at full scale
// (36,692 nodes) with the rumor community closest to the paper's
// |C| = 2631 (Fig. 6, Table I), |R| = 5% of it and α = 0.9. The network
// is one fixed instance, as the paper's dataset is; the workload seed
// draws the rumor sets and the sketch realizations.
const (
	enronNetSeed      = 0x0601
	enronCommunity    = 2631
	enronRumorFrac    = 0.05
	enronAlpha        = 0.9
	enronRealizations = 4
	enronHops         = 31
	// enronSetups is how many times set-up runs; setup_s is the median.
	enronSetups = 3
	// enronQualityDraws is how many rumor draws every run solves, however
	// slow, so the protector counts do not depend on speed.
	enronQualityDraws = 3
)

// offlineIter is one pipeline iteration's answers, kept for the checks.
type offlineIter struct {
	prob  *core.Problem
	set   *sketch.Set
	ris   *core.GreedyResult
	scbg  *scbgResult
	lcrbp time.Duration
	total time.Duration
}

// setupEnron generates the Enron network, detects its communities and
// picks the rumor community: the calls experiment.Setup makes, each in its
// own span.
func setupEnron(c calls) (*experiment.Instance, error) {
	root := c.tr.begin("setup", -1, 0)
	defer c.tr.end(root)
	id := c.tr.begin("gen.Enron", root, 0)
	net, err := gen.Enron(1, enronNetSeed)
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = c.tr.begin("community.Louvain", root, 0)
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: enronNetSeed + 1})
	c.tr.end(id)
	comm := part.ClosestBySize(enronCommunity)
	inst := &experiment.Instance{Net: net, Part: part, Community: comm, Members: part.Members(comm)}
	if len(inst.Members) == 0 {
		return nil, fmt.Errorf("rumor community %d is empty", comm)
	}
	return inst, nil
}

// runOffline is the offline-enron workload: LCRB-P through a fixed-size
// sketch build and RIS max coverage, LCRB-D through SCBG, and the paper's
// Proximity and MaxDegree baselines at SCBG's budget, on a new rumor draw
// each iteration for --seconds. With tracing on, each draw runs untraced
// and then traced, and the time difference is the tracing overhead.
func runOffline(ctx context.Context, cfg *config, res *result) error {
	tr := newTracer(cfg.Trace)
	c := calls{tr: tr}

	var setups []float64
	var inst *experiment.Instance
	for i := 0; i < enronSetups; i++ {
		// Collect the previous set-up's instance first, so the repeats
		// that time set-up do not stack up in peak_rss_mb.
		runtime.GC()
		t := time.Now()
		var err error
		inst, err = setupEnron(c)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	res.E2E["setup_s"] = median(setups)
	res.addInstance("enron", inst.Net.Graph.NumNodes(), inst.Net.Graph.NumEdges())
	res.note("instance: enron scale 1.0, |C| = %d (target %d), |R| = %.0f%% of |C|, alpha = %v, %d-realization sketch",
		len(inst.Members), enronCommunity, enronRumorFrac*100, enronAlpha, enronRealizations)

	iterate := func(c calls, draw int) (*offlineIter, error) {
		it := &offlineIter{}
		start := time.Now()
		root := c.tr.begin("pipeline", -1, int64(draw))
		defer c.tr.end(root)
		var err error
		it.prob, err = c.newProblem(inst, nil, enronRumorFrac, rng.New(cfg.Seed*1_000_003+uint64(draw)), root, int64(draw))
		if err != nil {
			return nil, err
		}
		t := time.Now()
		p := c.tr.begin("lcrbp", root, int64(draw))
		it.set, err = c.buildSketch(it.prob, sketch.Options{
			Samples: enronRealizations, Seed: cfg.Seed + 400 + uint64(draw), MaxHops: enronHops, Workers: cfg.Procs,
		}, p, int64(draw))
		if err == nil {
			it.ris, err = c.solveRIS(it.prob, it.set, enronAlpha, p, int64(draw))
		}
		c.tr.end(p)
		it.lcrbp = time.Since(t)
		if err != nil {
			return nil, err
		}
		if it.scbg, err = c.scbg(it.prob, enronAlpha, root, int64(draw)); err != nil {
			return nil, err
		}
		budget := len(it.scbg.Protectors)
		for _, sel := range []heuristic.Selector{heuristic.Proximity{}, heuristic.MaxDegree{}} {
			if _, err := c.selectHeuristic(sel, it.prob, budget, rng.New(cfg.Seed+300+uint64(draw)), root, int64(draw)); err != nil {
				return nil, err
			}
		}
		it.total = time.Since(start)
		return it, nil
	}

	// check compares an iteration's answers with the oracles: the fast RIS
	// selector against the retained reference selector on the same sketch,
	// the α target, and SCBG's cover of the required bridge ends. It runs
	// outside the timed iteration, which is then dropped, so peak_rss_mb
	// does not grow with the number of iterations a run fits.
	check := func(draw int, it *offlineIter) bool {
		ref, err := sketch.NewReferenceIndex(it.set).SolveGreedyRISContext(ctx, it.prob, sketch.SolveOptions{Alpha: enronAlpha})
		ok := true
		switch {
		case err != nil:
			res.mismatch("draw %d: reference RIS solve: %v", draw, err)
			ok = false
		case !reflect.DeepEqual(ref, it.ris):
			res.mismatch("draw %d: RIS selection differs from the reference selector", draw)
			ok = false
		}
		if !it.ris.Achieved {
			res.mismatch("draw %d: RIS selection did not reach alpha", draw)
			ok = false
		}
		if need := it.prob.RequiredEnds(enronAlpha); it.scbg.Covered < need {
			res.mismatch("draw %d: SCBG covered %d of %d required bridge ends", draw, it.scbg.Covered, need)
			ok = false
		}
		return ok
	}

	var lcrbp, lat, risCount, scbgCount, overhead []float64
	completed, exact := 0, 0
	// measured is the time spent in untraced iterations; the run stops
	// once it reaches --seconds (after at least enronQualityDraws draws).
	var measured time.Duration
	for draw := 0; draw < enronQualityDraws || measured < time.Duration(cfg.Seconds)*time.Second; draw++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res.Attempted++
		it, err := iterate(calls{}, draw)
		if err != nil {
			res.failOp("draw %d: %v", draw, err)
			continue
		}
		completed++
		measured += it.total
		if check(draw, it) {
			exact++
		}
		lcrbp = append(lcrbp, it.lcrbp.Seconds())
		lat = append(lat, ms(it.lcrbp))
		if draw < enronQualityDraws {
			risCount = append(risCount, float64(len(it.ris.Protectors)))
			scbgCount = append(scbgCount, float64(len(it.scbg.Protectors)))
		}
		res.note("draw %d: |R| = %d, |B| = %d, lcrbp %.3fs (%d protectors), scbg %d protectors, iteration %.3fs",
			draw, len(it.prob.Rumors), len(it.prob.Ends), it.lcrbp.Seconds(), len(it.ris.Protectors), len(it.scbg.Protectors), it.total.Seconds())
		if tr != nil {
			tit, err := iterate(c, draw)
			if err != nil {
				res.failOp("draw %d traced: %v", draw, err)
				continue
			}
			if !reflect.DeepEqual(tit.ris, it.ris) || !reflect.DeepEqual(tit.scbg, it.scbg) {
				res.mismatch("draw %d: traced answers differ from untraced ones", draw)
			}
			overhead = append(overhead, 100*(tit.total.Seconds()/it.total.Seconds()-1))
		}
	}
	if completed == 0 {
		return fmt.Errorf("no pipeline iteration completed")
	}
	rss, err := peakSelfRSSMB()
	if err != nil {
		return err
	}
	tail := tailOf(sorted(lat))
	res.E2E["p50_ms"] = median(lat)
	res.E2E["tail_ms"] = tail.Value
	res.E2E["lcrbp_s"] = median(lcrbp)
	res.E2E["throughput_rps"] = float64(completed) / measured.Seconds()
	res.E2E["lcrbp_protectors"] = mean(risCount)
	res.E2E["lcrbd_protectors"] = mean(scbgCount)
	res.E2E["peak_rss_mb"] = rss
	res.E2E["ok_frac"] = float64(completed) / float64(res.Attempted)
	res.E2E["exact_frac"] = float64(exact) / float64(res.Attempted)
	res.note("p50_ms/tail_ms: LCRB-P solve latency, tail at %s of %d solves; throughput_rps: pipeline iterations per second", tail.label(), tail.N)

	if tr != nil {
		if err := tr.reconcile(); err != nil {
			res.mismatch("%v", err)
		}
		fillLayers(res, tr)
		res.Layers["trace.overhead_pct"] = median(overhead)
	}
	return nil
}
