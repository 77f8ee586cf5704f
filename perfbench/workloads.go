package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"lcrb/internal/rng"
)

// serve-ris: an open loop of auto/ris requests over warm sketches on a
// fixed ladder of arrival rates.
var (
	risRates    = []float64{100, 150, 200}
	risLimitMs  = 50.0
	risFracs    = []float64{0.05, 0.1, 0.2}
	greedyFracs = []float64{0.1}
	greedyAlgos = []string{"greedy", "scbg"}
	// greedySeeds are five hep instances: the Hep figure seeds plus Table
	// I's. An odd count of equally often asked items puts the median
	// greedy latency inside one item's cluster of latencies rather than
	// on the boundary between two, where a one-request change in the mix
	// would move it by the gap between their costs.
	greedySeeds = []uint64{0x0401, 0x0701, 0x1101, 0x1102, 0x1103}
)

// risSchedule generates serve-ris's requests: random arrivals at each
// ladder rate for an equal share of the run, each an auto or ris request
// for a uniformly drawn pool item.
func risSchedule(seed uint64, seconds int, pool []poolItem) []op {
	src := rng.New(seed)
	stepDur := time.Duration(seconds) * time.Second / time.Duration(len(risRates))
	var ops []op
	for step, rate := range risRates {
		for _, due := range arrivals(src, int(rate*stepDur.Seconds()), time.Duration(step)*stepDur, stepDur) {
			algo := "ris"
			if src.Bool(0.5) {
				algo = "auto"
			}
			i := src.Intn(len(pool))
			ops = append(ops, op{ID: int64(len(ops)), Due: due, Step: step, Solve: pool[i].request(algo, i)})
		}
	}
	return ops
}

func runServeRIS(ctx context.Context, cfg *config, res *result) error {
	pool := makePool(serveScale, hepSeeds, risFracs)
	ops := risSchedule(cfg.Seed, cfg.Seconds, pool)
	d, err := setupDaemon(ctx, cfg, res, []string{"-scale", fmt.Sprint(serveScale), "-sketch-samples", strconv.Itoa(serveSketchN)},
		func(d *daemon) error { return warmRIS(ctx, d, pool) })
	if err != nil {
		return err
	}
	defer d.stop()
	tr := newTracer(cfg.Trace)
	before, err := d.stats(ctx)
	if err != nil {
		return err
	}
	answers := make([]*solveAnswer, len(ops))
	dues := make([]time.Duration, len(ops))
	for i, o := range ops {
		dues[i] = o.Due
	}
	outs := openLoop(ctx, dues, cfg.Procs, sendSolve(d, ops, answers, tr))
	if err := ctx.Err(); err != nil {
		return err
	}
	after, err := d.stats(ctx)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	d.stop()
	reqs := make([]served, len(ops))
	for i := range ops {
		reqs[i] = served{op: ops[i], out: outs[i], ans: answers[i]}
	}
	latencyStats(reqs, res, nil)
	res.E2E["peak_rss_mb"] = rss

	// The rate ladder: a step passes when its tail stays under the limit,
	// nothing failed, and its last tenth was not slower than the limit
	// (no growing backlog). max_rps is the completed rate of the highest
	// passing step, from the step's start to its last completion.
	stepDur := time.Duration(cfg.Seconds) * time.Second / time.Duration(len(risRates))
	maxRPS := 0.0
	for step, rate := range risRates {
		var sl []float64
		failed := 0
		last := time.Duration(step) * stepDur
		for _, r := range reqs {
			if r.op.Step == step && r.out.Sent {
				if r.out.Err != nil {
					failed++
				}
				sl = append(sl, ms(r.out.latency()))
				if r.out.End > last {
					last = r.out.End
				}
			}
		}
		s := sorted(sl)
		tail := tailOf(s)
		end := sl[len(sl)-len(sl)/10:]
		pass := len(sl) > 0 && failed == 0 && tail.Value <= risLimitMs && median(end) <= risLimitMs
		achieved := float64(len(sl)-failed) / (last - time.Duration(step)*stepDur).Seconds()
		if pass {
			maxRPS = achieved
		}
		res.note("step %d: offered %.0f/s, completed %.1f/s, p50 %.3f ms from due, tail %s %.3f ms (n = %d), pass = %v (limit %.0f ms)",
			step, rate, achieved, percentile(s, 5000), tail.label(), tail.Value, tail.N, pass, risLimitMs)
	}
	res.E2E["max_rps"] = maxRPS
	res.E2E["throughput_rps"] = maxRPS

	o := newOracle(cfg.Procs, serveSketchN, false)
	if err := o.warm(calls{tr: tr}, pool, res); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := checkAnswers(o, pool, reqs, res); err != nil {
		return err
	}
	if res.E2E["lcrbp_protectors"], err = poolMeanProtectors(o, pool, "ris", res); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	statsDelta(before, after, reqs, res)
	return traceServe(tr, o, pool, reqs, res)
}

// traceServe replays the served stream in-process and fills the layer
// metrics.
func traceServe(tr *tracer, o *oracle, pool []poolItem, reqs []served, res *result) error {
	var stream []served
	for _, r := range reqs {
		if r.out.Sent && r.out.Err == nil {
			stream = append(stream, r)
		}
	}
	n, overhead, err := replay(tr, len(stream), nil, func(c calls, i int) error {
		r := stream[i]
		root := c.tr.begin("request", -1, r.op.ID)
		defer c.tr.end(root)
		item := pool[r.op.Solve.Pool]
		got, err := o.solve(c, item, r.op.Solve.Algorithm, res, root, r.op.ID)
		if err != nil {
			return err
		}
		if want, err := o.expect(item, r.op.Solve.Algorithm, res); err != nil {
			return err
		} else if !sameSet(got, want) {
			res.mismatch("replay of request %d: traced answer %v differs from untraced %v", r.op.ID, got, want)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	res.note("replayed %d of %d served requests in-process", n, len(stream))
	if err := tr.reconcile(); err != nil {
		res.mismatch("%v", err)
	}
	fillLayers(res, tr)
	res.Layers["trace.overhead_pct"] = overhead
	res.Layers["loadgen.late_ms"] = lateMs(reqs)
	return nil
}

// greedySchedule generates serve-greedy's requests: rounds that each ask
// every pool item once with every algorithm (the paper's Monte-Carlo
// greedy and SCBG), in an order the seed shuffles per round, so any long
// enough prefix has the same mix.
func greedySchedule(seed uint64, pool []poolItem, rounds int) []op {
	src := rng.New(seed)
	var ops []op
	for r := 0; r < rounds; r++ {
		perm := src.Perm(len(pool) * len(greedyAlgos))
		for _, k := range perm {
			i, algo := k/len(greedyAlgos), greedyAlgos[k%len(greedyAlgos)]
			ops = append(ops, op{ID: int64(len(ops)), Solve: pool[i].request(algo, i)})
		}
	}
	return ops
}

func runServeGreedy(ctx context.Context, cfg *config, res *result) error {
	pool := makePool(greedyScale, greedySeeds, greedyFracs)
	ops := greedySchedule(cfg.Seed, pool, 1000)
	d, err := setupDaemon(ctx, cfg, res, []string{"-scale", fmt.Sprint(greedyScale), "-sketch-samples", "0", "-deadline", "60s"},
		func(d *daemon) error {
			for i, item := range pool {
				if _, err := d.solve(ctx, item.request("scbg", i)); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return err
	}
	defer d.stop()
	tr := newTracer(cfg.Trace)
	before, err := d.stats(ctx)
	if err != nil {
		return err
	}
	answers := make([]*solveAnswer, len(ops))
	start := time.Now()
	outs := closedLoop(ctx, len(ops), cfg.Procs, time.Duration(cfg.Seconds)*time.Second, sendSolve(d, ops, answers, tr))
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return err
	}
	after, err := d.stats(ctx)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	d.stop()
	var reqs []served
	for i := range ops {
		if outs[i].Sent {
			reqs = append(reqs, served{op: ops[i], out: outs[i], ans: answers[i]})
		}
	}
	// p50_ms and tail_ms time the Monte-Carlo greedy requests, the
	// workload's reason to exist; SCBG answers take milliseconds and would
	// put the median on the boundary between the two.
	latencyStats(reqs, res, func(r served) bool { return r.op.Solve.Algorithm == "greedy" })
	res.E2E["peak_rss_mb"] = rss
	res.E2E["throughput_rps"] = float64(len(reqs)-res.Failed) / elapsed.Seconds()
	res.note("closed loop: %d clients, %d requests in %.2fs", cfg.Procs, len(reqs), elapsed.Seconds())

	o := newOracle(cfg.Procs, serveSketchN, false)
	if err := checkAnswers(o, pool, reqs, res); err != nil {
		return err
	}
	if res.E2E["lcrbp_protectors"], err = poolMeanProtectors(o, pool, "greedy", res); err != nil {
		return err
	}
	if res.E2E["lcrbd_protectors"], err = poolMeanProtectors(o, pool, "scbg", res); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	statsDelta(before, after, reqs, res)
	return traceServe(tr, o, pool, reqs, res)
}
