package main

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"time"

	"lcrb/internal/core"
	"lcrb/internal/experiment"
	"lcrb/internal/heuristic"
	"lcrb/internal/rng"
	"lcrb/internal/sketch"
)

// The serve workloads' instances: hep networks at a tenth of the paper's
// size (a fiftieth for serve-greedy, where one Monte-Carlo greedy solve
// still takes about a second) with the daemon's default rumor community
// target and solver settings (α = 0.9, 10 σ̂ samples, 31 hops).
const (
	serveDataset  = "hep"
	serveScale    = 0.1
	greedyScale   = 0.02
	serveComm     = 80
	serveAlpha    = 0.9
	serveSamples  = 10
	serveHops     = 31
	serveSketchN  = 128
	serveSetups   = 3
	replayBudget  = 3 * time.Second
	warmupTimeout = 60 * time.Second
	warmAskMillis = 300
)

// poolItem is one distinct problem a serve workload's requests ask about:
// an instance (seed and scale) and a rumor fraction.
type poolItem struct {
	Seed  uint64
	Scale float64
	Frac  float64
}

// request returns the solve request for the item.
func (p poolItem) request(algorithm string, index int) *solveReq {
	return &solveReq{
		Dataset: serveDataset, Scale: p.Scale, Seed: p.Seed, CommunitySize: serveComm,
		RumorFraction: p.Frac, Algorithm: algorithm, Pool: index,
	}
}

// hepSeeds are the serve workloads' hep instances: the generator seeds of
// the paper's Hep figures (Fig. 4 and Fig. 7). The instances are fixed, as
// a dataset is, so every workload seed meets the same per-request work;
// the workload seed drives the request stream.
var hepSeeds = []uint64{0x0401, 0x0701}

// makePool pairs every instance seed with every rumor fraction.
func makePool(scale float64, seeds []uint64, fracs []float64) []poolItem {
	var out []poolItem
	for _, s := range seeds {
		for _, f := range fracs {
			out = append(out, poolItem{Seed: s, Scale: scale, Frac: f})
		}
	}
	return out
}

// oracle answers the serve workloads' requests in-process, with the same
// library calls and parameters the daemon uses for each rung, so a
// non-degraded HTTP answer must equal its answer exactly.
type oracle struct {
	procs int
	insts map[poolItem]*experiment.Instance
	sets  map[poolItem]*sketch.Set
	memo  map[string][]int32
	// footprints makes sketches repairable (serve-delta).
	footprints bool
	sketchN    int
}

func newOracle(procs, sketchN int, footprints bool) *oracle {
	return &oracle{
		procs: procs, sketchN: sketchN, footprints: footprints,
		insts: make(map[poolItem]*experiment.Instance), sets: make(map[poolItem]*sketch.Set),
		memo: make(map[string][]int32),
	}
}

// instance builds (once) the daemon's instance for an item's instance
// seed and scale.
func (o *oracle) instance(item poolItem, res *result) (*experiment.Instance, error) {
	key := poolItem{Seed: item.Seed, Scale: item.Scale}
	if inst := o.insts[key]; inst != nil {
		return inst, nil
	}
	inst, err := experiment.Setup(experiment.Config{
		Name: "lcrbd", Dataset: serveDataset, Scale: item.Scale, Seed: item.Seed, CommunityTarget: serveComm,
	})
	if err != nil {
		return nil, err
	}
	o.insts[key] = inst
	res.addInstance(fmt.Sprintf("hep-%g-%d", item.Scale, item.Seed), inst.Net.Graph.NumNodes(), inst.Net.Graph.NumEdges())
	return inst, nil
}

// problem builds the item's problem as the daemon does for a request.
func (o *oracle) problem(c calls, item poolItem, res *result, parent int, req int64) (*core.Problem, error) {
	inst, err := o.instance(item, res)
	if err != nil {
		return nil, err
	}
	return c.newProblem(inst, nil, item.Frac, rng.New(item.Seed+100), parent, req)
}

// sketchOptions are the daemon's sketch build options for an item.
func (o *oracle) sketchOptions(item poolItem) sketch.Options {
	return sketch.Options{Samples: o.sketchN, Seed: item.Seed + 400, MaxHops: serveHops, Workers: o.procs, Footprints: o.footprints}
}

// warm builds every item's problem and sketch: the in-process counterpart
// of the daemon's warm store.
func (o *oracle) warm(c calls, pool []poolItem, res *result) error {
	root := c.tr.begin("warm", -1, 0)
	defer c.tr.end(root)
	for _, item := range pool {
		if o.sets[item] != nil {
			continue
		}
		p, err := o.problem(c, item, res, root, 0)
		if err != nil {
			return err
		}
		set, err := c.buildSketch(p, o.sketchOptions(item), root, 0)
		if err != nil {
			return err
		}
		o.sets[item] = set
	}
	return nil
}

// solve answers one request in-process: the problem build and the rung
// named by algorithm (auto is answered by the warm sketch, as the daemon
// does once warm).
func (o *oracle) solve(c calls, item poolItem, algorithm string, res *result, parent int, req int64) ([]int32, error) {
	p, err := o.problem(c, item, res, parent, req)
	if err != nil {
		return nil, err
	}
	switch algorithm {
	case "auto", "ris":
		if o.sets[item] == nil {
			set, err := c.buildSketch(p, o.sketchOptions(item), parent, req)
			if err != nil {
				return nil, err
			}
			o.sets[item] = set
		}
		r, err := c.solveRIS(p, o.sets[item], serveAlpha, parent, req)
		if err != nil {
			return nil, err
		}
		return r.Protectors, nil
	case "greedy":
		r, err := c.greedy(p, core.GreedyOptions{Alpha: serveAlpha, Samples: serveSamples, Seed: item.Seed + 200, MaxHops: serveHops, Workers: o.procs}, parent, req)
		if err != nil {
			return nil, err
		}
		return r.Protectors, nil
	case "scbg":
		r, err := c.scbg(p, serveAlpha, parent, req)
		if err != nil {
			return nil, err
		}
		return r.Protectors, nil
	case "proximity", "Proximity", "maxdegree", "MaxDegree":
		var sel heuristic.Selector = heuristic.Proximity{}
		if algorithm == "maxdegree" || algorithm == "MaxDegree" {
			sel = heuristic.MaxDegree{}
		}
		budget := len(p.Rumors)
		if budget < 1 {
			budget = 1
		}
		return c.selectHeuristic(sel, p, budget, rng.New(item.Seed+300), parent, req)
	}
	return nil, fmt.Errorf("oracle: unknown algorithm %q", algorithm)
}

// expect returns the oracle answer for an item and the algorithm that
// produced an HTTP answer, computing it once.
func (o *oracle) expect(item poolItem, algorithm string, res *result) ([]int32, error) {
	key := fmt.Sprintf("%d/%g/%g/%s", item.Seed, item.Scale, item.Frac, algorithm)
	if ps, ok := o.memo[key]; ok {
		return ps, nil
	}
	ps, err := o.solve(calls{}, item, algorithm, res, -1, 0)
	if err != nil {
		return nil, err
	}
	o.memo[key] = ps
	return ps, nil
}

// served is one HTTP request's outcome and answer.
type served struct {
	op  op
	out outcome
	ans *solveAnswer
}

// checkAnswers compares every non-degraded answer with the oracle.
func checkAnswers(o *oracle, pool []poolItem, reqs []served, res *result) error {
	for _, r := range reqs {
		if r.ans == nil || r.ans.Degraded {
			continue
		}
		want, err := o.expect(pool[r.op.Solve.Pool], r.ans.Algorithm, res)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if !sameSet(want, r.ans.Protectors) {
			res.mismatch("request %d (%s, pool %d) answered by %s: %v, in-process solve gives %v",
				r.op.ID, r.op.Solve.Algorithm, r.op.Solve.Pool, r.ans.Algorithm, r.ans.Protectors, want)
		}
	}
	return nil
}

// sameSet compares protector lists exactly, in selection order; nil and
// empty are equal.
func sameSet(a, b []int32) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// latencyStats fills the latency, error and degradation metrics of a
// serve workload from its requests; p50_ms and tail_ms cover the requests
// timed selects (all when nil). p50_ms times each request from when it was
// sent, tail_ms from when it was due.
//
// The split keeps p50_ms steady on a shared host. With a few connections
// near a third of a request is queued in the generator behind another, so
// a due-timed median sits on the edge between queued and unqueued
// requests, and a host that woke the generator a little late moved it by
// half between runs of the same code, while send-timed medians moved by a
// tenth. A stalled or saturated daemon still shows in tail_ms, the ladder's
// pass rule and loadgen.late_ms, which keep due-time timing.
func latencyStats(reqs []served, res *result, timed func(served) bool) {
	var lat, svc []float64
	sent, errs, degraded := 0, 0, 0
	for _, r := range reqs {
		if !r.out.Sent {
			continue
		}
		sent++
		switch {
		case r.out.Err != nil:
			errs++
			res.failOp("request %d: %v", r.op.ID, r.out.Err)
		case r.ans.Degraded:
			degraded++
		}
		if timed == nil || timed(r) {
			lat = append(lat, ms(r.out.latency()))
			svc = append(svc, ms(r.out.service()))
		}
	}
	res.Attempted += sent
	tail := tailOf(sorted(lat))
	res.E2E["p50_ms"] = median(svc)
	res.E2E["tail_ms"] = tail.Value
	if sent > 0 {
		res.E2E["error_frac"] = float64(errs) / float64(sent)
		res.E2E["degraded_frac"] = float64(degraded) / float64(sent)
		res.E2E["ok_frac"] = 1 - res.E2E["error_frac"]
		res.E2E["exact_frac"] = 1 - res.E2E["degraded_frac"]
	}
	res.note("%d requests sent, %d failed, %d degraded; p50 %.3f ms from send, tail %s %.3f ms from due (n = %d timed)",
		sent, errs, degraded, res.E2E["p50_ms"], tail.label(), tail.Value, tail.N)
	slow := make([]served, 0, len(reqs))
	for _, r := range reqs {
		if r.out.Sent {
			slow = append(slow, r)
		}
	}
	sort.Slice(slow, func(a, b int) bool { return slow[a].out.latency() > slow[b].out.latency() })
	for _, r := range slow[:min(len(slow), 5)] {
		res.note("slow: request %d due at %.3fs took %.3f ms (%.3f ms of it waiting to be sent)",
			r.op.ID, r.out.Due.Seconds(), ms(r.out.latency()), ms(r.out.late()))
	}
}

// sendSolve returns the openLoop/closedLoop body that posts ops[i].
func sendSolve(d *daemon, ops []op, answers []*solveAnswer, tr *tracer) func(ctx context.Context, i int) error {
	return func(ctx context.Context, i int) error {
		id := tr.begin("http.solve", -1, ops[i].ID)
		defer tr.end(id)
		ans, err := d.solve(ctx, ops[i].Solve)
		answers[i] = ans
		return err
	}
}

// setupDaemon starts the daemon and warms it serveSetups times, stopping
// all but the last, and records setup_s as the median. warm runs against
// each fresh daemon.
func setupDaemon(ctx context.Context, cfg *config, res *result, args []string, warm func(d *daemon) error) (*daemon, error) {
	if cfg.Lcrbd == "" {
		return nil, fmt.Errorf("the serve workloads need -lcrbd")
	}
	client := newClient(cfg.Procs)
	var times []float64
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		d.stop()
		start := time.Now()
		var err error
		d, err = startDaemon(ctx, cfg.Lcrbd, cfg.Workdir, client, args...)
		if err != nil {
			return nil, err
		}
		if err := warm(d); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	res.E2E["setup_s"] = median(times)
	return d, nil
}

// warmRIS warms every pool item's sketch: one ask per item starts the
// instance and sketch builds, then each item is asked again until the
// daemon serves it from a warm sketch. The asks carry a short deadline so
// a cold answer degrades quickly instead of running the full Monte-Carlo
// ladder; a cold ask that times out instead is retried.
func warmRIS(ctx context.Context, d *daemon, pool []poolItem) error {
	ask := func(i int) (*solveAnswer, error) {
		req := pool[i].request("ris", i)
		req.TimeoutMillis = warmAskMillis
		return d.solve(ctx, req)
	}
	for i := range pool {
		_, _ = ask(i) // only starts the build; the loop below checks
	}
	deadline := time.Now().Add(warmupTimeout)
	for i := range pool {
		for {
			ans, err := ask(i)
			if err == nil && !ans.Degraded && ans.Algorithm == "ris" {
				break
			}
			if time.Now().After(deadline) {
				if err == nil {
					err = fmt.Errorf("%s", ans.DegradedReason)
				}
				return fmt.Errorf("pool item %d still cold after %v: %w", i, warmupTimeout, err)
			}
			if err := sleepCtx(ctx, 10*time.Millisecond); err != nil {
				return err
			}
		}
	}
	return nil
}

// statsDelta reads /v1/stats differences over the load into the layer
// metrics, along with the server-side p50 and the transport share of the
// client's send-timed p50, taken over the same last requests as the
// server's window.
func statsDelta(before, after map[string]float64, reqs []served, res *result) {
	for key, name := range statsKeys {
		res.Layers[name] = after[key] - before[key]
	}
	var lat []float64
	for _, r := range reqs {
		if r.out.Sent {
			lat = append(lat, ms(r.out.service()))
		}
	}
	window := int(after["latency.count"] - before["latency.count"])
	if window > 512 {
		window = 512 // the daemon's rolling latency window
	}
	if window > len(lat) {
		window = len(lat)
	}
	if window > 0 {
		res.Layers["server.p50_ms"] = after["latency.p50Millis"]
		res.Layers["transport.p50_ms"] = median(lat[len(lat)-window:]) - after["latency.p50Millis"]
	}
}

// replay runs the served request stream in-process through the library
// calls the daemon makes, first untraced and then traced, for at most
// replayBudget of untraced time. reset, when set, restores the starting
// state before each pass. It returns how many ops it replayed and the
// tracing overhead in percent.
func replay(tr *tracer, n int, reset func(c calls, parent int) error, step func(c calls, i int) error) (int, float64, error) {
	pass := func(c calls, limit int) (int, time.Duration, error) {
		start := time.Now()
		root := c.tr.begin("replay", -1, 0)
		defer c.tr.end(root)
		if reset != nil {
			if err := reset(c, root); err != nil {
				return 0, 0, err
			}
		}
		count := 0
		for count < limit && (limit < n || count == 0 || time.Since(start) < replayBudget) {
			if err := step(c, count); err != nil {
				return 0, 0, err
			}
			count++
		}
		return count, time.Since(start), nil
	}
	count, untraced, err := pass(calls{}, n)
	if err != nil {
		return 0, 0, err
	}
	if _, traced, err := pass(calls{tr: tr}, count); err != nil {
		return 0, 0, err
	} else {
		return count, 100 * (traced.Seconds()/untraced.Seconds() - 1), nil
	}
}

// lateMs is the tail of how far behind schedule requests were sent.
func lateMs(reqs []served) float64 {
	var late []float64
	for _, r := range reqs {
		if r.out.Sent {
			late = append(late, ms(r.out.late()))
		}
	}
	return tailOf(sorted(late)).Value
}

// poolMeanProtectors is the mean oracle protector count of an algorithm
// over the pool: a quality number independent of how many requests the
// run completed.
func poolMeanProtectors(o *oracle, pool []poolItem, algorithm string, res *result) (float64, error) {
	var counts []float64
	for _, item := range pool {
		ps, err := o.expect(item, algorithm, res)
		if err != nil {
			return 0, err
		}
		counts = append(counts, float64(len(ps)))
	}
	return mean(counts), nil
}
