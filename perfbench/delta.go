package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"lcrb/internal/core"
	"lcrb/internal/dyngraph"
	"lcrb/internal/experiment"
	"lcrb/internal/rng"
	"lcrb/internal/sketch"
)

// serve-delta: a fixed-rate read stream against lcrbd -dynamic beside a
// fixed-rate stream of graph deltas confined to a node-id window.
const (
	deltaReadRate  = 150.0
	deltaInterval  = 4 * time.Second
	deltaSpan      = 16
	deltaEdges     = 2
	deltaSketchN   = 32
	deltaCatchUp   = 30 * time.Second
	deltaPollEvery = 10 * time.Millisecond
	// deltaReadMillis is the reads' deadline: a read that misses the warm
	// sketch while it is being repaired degrades within it (the ladder
	// falls to SCBG at once) instead of waiting out the Monte-Carlo
	// ladder's hedge delay and stalling the reads queued behind it.
	deltaReadMillis = 50
)

// deltaInterval keeps the repair window (a serial redraw of both warm
// sketches, a few hundred ms, then the reads' stale builds) to about a
// tenth of the run. At one delta every 2 s a slower host stretches the
// window over more than a third of the reads, each about twice as slow,
// which moves the read median between runs of the same code. deltaPollEvery
// is coarse for the same reason: polling adds little load to the window.

var deltaFracs = []float64{0.05, 0.1}

// deltaSchedule generates serve-delta's reads and deltas. Reads are
// random arrivals of auto/ris requests on the master's instance; deltas
// come every deltaInterval, each adding deltaEdges random edges inside
// [0, deltaSpan) or removing edges an earlier delta added, with base
// versions 1, 2, ... (the benchmark is the only writer).
func deltaSchedule(seed uint64, seconds int, pool []poolItem) (reads, deltas []op) {
	src := rng.New(seed)
	dur := time.Duration(seconds) * time.Second
	for _, due := range arrivals(src, int(deltaReadRate*dur.Seconds()), 0, dur) {
		algo := "ris"
		if src.Bool(0.5) {
			algo = "auto"
		}
		i := src.Intn(len(pool))
		req := pool[i].request(algo, i)
		req.TimeoutMillis = deltaReadMillis
		reads = append(reads, op{ID: int64(len(reads)), Due: due, Solve: req})
	}
	var added [][2]int32
	for k := 0; time.Duration(k+1)*deltaInterval < dur; k++ {
		body := &deltaBody{BaseVersion: uint64(k + 1)}
		if len(added) >= deltaEdges && src.Bool(0.3) {
			for j := 0; j < deltaEdges; j++ {
				idx := src.Intn(len(added))
				body.RemoveEdges = append(body.RemoveEdges, added[idx])
				added = append(added[:idx], added[idx+1:]...)
			}
		} else {
			for len(body.AddEdges) < deltaEdges {
				u, v := src.Int32n(deltaSpan), src.Int32n(deltaSpan)
				if u != v {
					body.AddEdges = append(body.AddEdges, [2]int32{u, v})
					added = append(added, [2]int32{u, v})
				}
			}
		}
		deltas = append(deltas, op{ID: int64(k), Due: time.Duration(k+1) * deltaInterval, Delta: body})
	}
	return reads, deltas
}

// toDelta converts a generated body into the library's delta.
func (b *deltaBody) toDelta() dyngraph.Delta {
	return dyngraph.Delta{BaseVersion: b.BaseVersion, AddEdges: b.AddEdges, RemoveEdges: b.RemoveEdges}
}

// deltaOutcome is one posted delta: its new version and repair lag.
type deltaOutcome struct {
	version uint64
	lag     time.Duration
	err     error
}

// servedVersions reads the dynamic tier's master and served versions.
func servedVersions(ctx context.Context, d *daemon) (master, served uint64, err error) {
	st, err := d.stats(ctx)
	if err != nil {
		return 0, 0, err
	}
	return uint64(st["dynamic.masterVersion"]), uint64(st["dynamic.servedVersion"]), nil
}

// runDeltas posts each delta at its due time, or at once when the previous
// delta's repair overran it, and measures its repair lag: the time until
// /v1/stats reports the served snapshot at the delta's version. Deltas
// still unsent when dur is over are dropped.
func runDeltas(ctx context.Context, d *daemon, deltas []op, dur time.Duration, tr *tracer) []deltaOutcome {
	outs := make([]deltaOutcome, len(deltas))
	t0 := time.Now()
	for i, o := range deltas {
		if time.Since(t0) >= dur {
			return outs[:i]
		}
		if wait := o.Due - time.Since(t0); wait > 0 {
			if sleepCtx(ctx, wait) != nil {
				return outs[:i]
			}
		}
		id := tr.begin("http.delta", -1, o.ID)
		var ans struct {
			Version uint64 `json:"version"`
		}
		start := time.Now()
		err := d.post(ctx, "/v1/graph/delta", o.Delta, &ans)
		for err == nil {
			_, servedV, serr := servedVersions(ctx, d)
			if serr != nil {
				err = serr
				break
			}
			if servedV >= ans.Version {
				break
			}
			if time.Since(start) > deltaCatchUp {
				err = fmt.Errorf("delta %d: served version still behind %d after %v", o.ID, ans.Version, deltaCatchUp)
				break
			}
			if err = sleepCtx(ctx, deltaPollEvery); err != nil {
				break
			}
		}
		outs[i] = deltaOutcome{version: ans.Version, lag: time.Since(start), err: err}
		tr.end(id)
	}
	return outs
}

func runServeDelta(ctx context.Context, cfg *config, res *result) error {
	seed := hepSeeds[0]
	pool := make([]poolItem, len(deltaFracs))
	for i, f := range deltaFracs {
		pool[i] = poolItem{Seed: seed, Scale: serveScale, Frac: f}
	}
	reads, deltas := deltaSchedule(cfg.Seed, cfg.Seconds, pool)
	args := []string{"-dynamic", "-scale", fmt.Sprint(serveScale), "-seed", strconv.FormatUint(seed, 10),
		"-community-size", strconv.Itoa(serveComm), "-sketch-samples", strconv.Itoa(deltaSketchN)}
	d, err := setupDaemon(ctx, cfg, res, args, func(d *daemon) error { return warmRIS(ctx, d, pool) })
	if err != nil {
		return err
	}
	defer d.stop()
	tr := newTracer(cfg.Trace)
	before, err := d.stats(ctx)
	if err != nil {
		return err
	}

	readers := cfg.Procs - 1
	if readers < 1 {
		readers = 1
	}
	answers := make([]*solveAnswer, len(reads))
	dues := make([]time.Duration, len(reads))
	for i, o := range reads {
		dues[i] = o.Due
	}
	var douts []deltaOutcome
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		douts = runDeltas(ctx, d, deltas, time.Duration(cfg.Seconds)*time.Second, tr)
	}()
	outs := openLoop(ctx, dues, readers, sendSolve(d, reads, answers, tr))
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Once the load has drained, the served snapshot must catch up with
	// the master.
	var masterV, servedV uint64
	catchUp := time.Now().Add(deltaCatchUp)
	for {
		if masterV, servedV, err = servedVersions(ctx, d); err != nil {
			return err
		}
		if servedV == masterV || time.Now().After(catchUp) {
			break
		}
		if err := sleepCtx(ctx, deltaPollEvery); err != nil {
			return err
		}
	}
	after, err := d.stats(ctx)
	if err != nil {
		return err
	}

	reqs := make([]served, len(reads))
	stale, tagged := 0, 0
	for i := range reads {
		reqs[i] = served{op: reads[i], out: outs[i], ans: answers[i]}
		if a := answers[i]; a != nil && a.Staleness != nil {
			tagged++
			if a.Staleness.BehindBatches > 0 {
				stale++
			}
		}
	}
	latencyStats(reqs, res, nil)
	completed, last := 0, time.Duration(0)
	for _, r := range reqs {
		if r.out.Sent && r.out.Err == nil {
			completed++
			if r.out.End > last {
				last = r.out.End
			}
		}
	}
	res.E2E["throughput_rps"] = float64(completed) / last.Seconds()
	if tagged > 0 {
		res.E2E["stale_frac"] = float64(stale) / float64(tagged)
	}
	var lags []float64
	var applied []dyngraph.Delta
	for i, o := range douts {
		res.Attempted++
		if o.err != nil {
			res.failOp("delta %d: %v", i, o.err)
			continue
		}
		if o.version != deltas[i].Delta.BaseVersion+1 {
			res.mismatch("delta %d: daemon answered version %d, want %d", i, o.version, deltas[i].Delta.BaseVersion+1)
			continue
		}
		applied = append(applied, deltas[i].Delta.toDelta())
		lags = append(lags, ms(o.lag))
	}
	lagTail := tailOf(sorted(lags))
	res.E2E["repair_lag_p50_ms"] = median(lags)
	res.E2E["repair_lag_tail_ms"] = lagTail.Value
	res.note("%d deltas applied; repair lag p50 %.3f ms, tail %s %.3f ms (n = %d); %d of %d answers stale",
		len(applied), median(lags), lagTail.label(), lagTail.Value, lagTail.N, stale, tagged)
	if servedV != masterV {
		res.mismatch("served version %d still behind master %d after the load drained", servedV, masterV)
	}

	// Repair ≡ rebuild: the final answers, served from repaired sketches,
	// must equal solves on fresh full rebuilds at the final version.
	o := newOracle(cfg.Procs, deltaSketchN, false)
	inst, err := o.instance(pool[0], res)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	m, err := dyngraph.NewMaster(inst.Net.Graph)
	if err != nil {
		return err
	}
	for _, dl := range applied {
		if _, _, err := m.ApplyDelta(dl); err != nil {
			return fmt.Errorf("oracle: apply delta: %w", err)
		}
	}
	if m.Version() != masterV {
		res.mismatch("in-process master at version %d, daemon master at %d", m.Version(), masterV)
	}
	snap := m.Snapshot()
	var counts []float64
	for i, item := range pool {
		res.Attempted++
		ans, err := d.solve(ctx, item.request("ris", i))
		if err != nil {
			res.failOp("final read %d: %v", i, err)
			continue
		}
		p, err := inst.NewProblemOn(snap.Graph, item.Frac, rng.New(item.Seed+100))
		if err != nil {
			return err
		}
		set, err := sketch.Build(p, o.sketchOptions(item))
		if err != nil {
			return err
		}
		want, err := sketch.SolveGreedyRIS(p, set, sketch.SolveOptions{Alpha: serveAlpha})
		if err != nil {
			return err
		}
		counts = append(counts, float64(len(want.Protectors)))
		switch {
		case ans.Degraded:
			res.mismatch("final read %d degraded: %s", i, ans.DegradedReason)
		case ans.Staleness == nil || ans.Staleness.Version != snap.Version:
			res.mismatch("final read %d not served at master version %d", i, snap.Version)
		case !sameSet(ans.Protectors, want.Protectors):
			res.mismatch("final read %d: repaired answer %v, fresh rebuild gives %v", i, ans.Protectors, want.Protectors)
		}
	}
	res.E2E["lcrbp_protectors"] = mean(counts)
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	res.E2E["peak_rss_mb"] = rss
	d.stop()
	if tr == nil {
		return nil
	}
	statsDelta(before, after, reqs, res)
	return traceDelta(tr, inst, pool, reqs, deltas[:len(douts)], res, cfg.Procs)
}

// traceDelta replays serve-delta in-process in due-time order: each read
// builds its problem on the current snapshot and solves on the current
// sketch; each delta applies to a fresh master and repairs every sketch
// from the batch's dirty nodes.
func traceDelta(tr *tracer, inst *experiment.Instance, pool []poolItem, reqs []served, deltas []op, res *result, procs int) error {
	type event struct {
		due   time.Duration
		read  *served
		delta *op
	}
	var events []event
	for i := range reqs {
		if r := &reqs[i]; r.out.Sent && r.out.Err == nil {
			events = append(events, event{due: r.op.Due, read: r})
		}
	}
	for i := range deltas {
		events = append(events, event{due: deltas[i].Due, delta: &deltas[i]})
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].due < events[b].due })

	o := newOracle(procs, deltaSketchN, true)
	var m *dyngraph.Master
	var snap *dyngraph.Snapshot
	probs := make([]*core.Problem, len(pool))
	sets := make([]*sketch.Set, len(pool))
	reset := func(c calls, parent int) error {
		var err error
		if m, err = dyngraph.NewMaster(inst.Net.Graph); err != nil {
			return err
		}
		snap = m.Snapshot()
		for i, item := range pool {
			if probs[i], err = c.newProblem(inst, snap.Graph, item.Frac, rng.New(item.Seed+100), parent, 0); err != nil {
				return err
			}
			if sets[i], err = c.buildSketch(probs[i], o.sketchOptions(item), parent, 0); err != nil {
				return err
			}
		}
		return nil
	}
	step := func(c calls, i int) error {
		ev := events[i]
		if ev.read != nil {
			root := c.tr.begin("request", -1, ev.read.op.ID)
			defer c.tr.end(root)
			k := ev.read.op.Solve.Pool
			p, err := c.newProblem(inst, snap.Graph, pool[k].Frac, rng.New(pool[k].Seed+100), root, ev.read.op.ID)
			if err != nil {
				return err
			}
			_, err = c.solveRIS(p, sets[k], serveAlpha, root, ev.read.op.ID)
			return err
		}
		root := c.tr.begin("delta", -1, ev.delta.ID)
		defer c.tr.end(root)
		next, sum, err := c.applyDelta(m, ev.delta.Delta.toDelta(), root, ev.delta.ID)
		if err != nil {
			return err
		}
		snap = next
		for k, item := range pool {
			p, err := c.newProblem(inst, snap.Graph, item.Frac, rng.New(item.Seed+100), root, ev.delta.ID)
			if err != nil {
				return err
			}
			if sets[k], err = c.repair(probs[k], p, sets[k], sum.DirtyNodes, snap.Version, procs, root, ev.delta.ID); err != nil {
				return err
			}
			probs[k] = p
		}
		return nil
	}
	n, overhead, err := replay(tr, len(events), reset, step)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	res.note("replayed %d of %d reads and deltas in-process", n, len(events))
	if err := tr.reconcile(); err != nil {
		res.mismatch("%v", err)
	}
	fillLayers(res, tr)
	res.Layers["trace.overhead_pct"] = overhead
	res.Layers["loadgen.late_ms"] = lateMs(reqs)
	return nil
}
