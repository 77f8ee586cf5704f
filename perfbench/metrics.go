package main

// metricDef names a metric with its unit and direction, as BENCHMARK.json
// lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// gated are the end-to-end metrics every workload reports with tracing
// off; BENCHMARK.json bounds each. They are the user-visible numbers that
// have a meaning on every workload and read steadily from run to run:
//
//   - p50_ms: the workload's median operation latency — one LCRB-P solve
//     (problem to α protector set) on offline-enron, one HTTP request timed
//     from when it was sent on serve-ris and serve-delta (tail_ms times
//     them from when they were due), one Monte-Carlo greedy request on
//     serve-greedy.
//   - throughput_rps: operations completed per second — pipeline
//     iterations on offline-enron, the highest passing ladder rate on
//     serve-ris (max_rps), completed requests on serve-greedy/serve-delta.
//   - lcrbp_protectors: mean LCRB-P protector count over the workload's
//     problems; the paper's cost.
//   - ok_frac / exact_frac: 1 − error_frac and 1 − degraded_frac, so that
//     no gated metric is ever 0.
var gated = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"lcrbp_protectors", "count", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"ok_frac", "fraction", "higher"},
	{"exact_frac", "fraction", "higher"},
}

// layerDef is a per-layer metric, the end-to-end metric it should move and
// the workloads that exercise it. A traced run reports every layer metric;
// one its workload does not exercise reads 0.
type layerDef struct {
	metricDef
	Moves     string
	Workloads string
}

// layers lists the traced run's metrics. The first group are end-to-end
// numbers that exist on only some workloads, or that swing too far from
// run to run on a shared machine to be gated (tail_ms: a serve run's
// slowest requests are the ones the machine stalled): they are measured
// in the traced run and printed by every run's report.
var layers = []layerDef{
	{metricDef{"tail_ms", "ms", "lower"}, "p50_ms", "all"},
	{metricDef{"lcrbp_s", "s", "lower"}, "p50_ms", "offline-enron"},
	{metricDef{"lcrbd_protectors", "count", "lower"}, "paper cost (LCRB-D)", "offline-enron serve-greedy"},
	{metricDef{"max_rps", "1/s", "higher"}, "throughput_rps", "serve-ris"},
	{metricDef{"error_frac", "fraction", "lower"}, "ok_frac", "serve-*"},
	{metricDef{"degraded_frac", "fraction", "lower"}, "exact_frac", "serve-*"},
	{metricDef{"repair_lag_p50_ms", "ms", "lower"}, "staleness of answers", "serve-delta"},
	{metricDef{"repair_lag_tail_ms", "ms", "lower"}, "staleness of answers", "serve-delta"},
	{metricDef{"stale_frac", "fraction", "lower"}, "staleness of answers", "serve-delta"},

	{metricDef{"gen.Enron.s", "s", "lower"}, "setup_s", "offline-enron"},
	{metricDef{"community.Louvain.s", "s", "lower"}, "setup_s", "offline-enron"},
	{metricDef{"sketch.Build.s", "s", "lower"}, "lcrbp_s, setup_s", "offline-enron serve-*"},
	{metricDef{"sketch.Build.ns_per_realization", "ns", "lower"}, "lcrbp_s, setup_s", "offline-enron serve-*"},
	{metricDef{"sketch.Build.realizations", "count", "lower"}, "lcrbp_s, setup_s", "offline-enron serve-*"},
	{metricDef{"sketch.Build.pairs", "count", "lower"}, "lcrbp_s, setup_s", "offline-enron serve-*"},
	{metricDef{"sketch.SolveGreedyRIS.ms", "ms", "lower"}, "p50_ms, max_rps", "serve-ris serve-delta offline-enron"},
	{metricDef{"sketch.SolveGreedyRIS.evaluations", "count", "lower"}, "p50_ms, max_rps", "serve-ris serve-delta offline-enron"},
	{metricDef{"core.NewProblem.ms", "ms", "lower"}, "p50_ms", "serve-* offline-enron"},
	{metricDef{"core.SCBG.ms", "ms", "lower"}, "lcrbd_protectors, throughput_rps", "offline-enron serve-greedy"},
	{metricDef{"bridge.Build.ms", "ms", "lower"}, "lcrbd_protectors, throughput_rps", "offline-enron serve-greedy"},
	{metricDef{"bridge.Invert.ms", "ms", "lower"}, "lcrbd_protectors, throughput_rps", "offline-enron serve-greedy"},
	{metricDef{"setcover.GreedyPartial.ms", "ms", "lower"}, "lcrbd_protectors, throughput_rps", "offline-enron serve-greedy"},
	{metricDef{"heuristic.Proximity.ms", "ms", "lower"}, "tail_ms of degraded answers", "offline-enron serve-greedy"},
	{metricDef{"heuristic.MaxDegree.ms", "ms", "lower"}, "tail_ms of degraded answers", "offline-enron serve-greedy"},
	{metricDef{"core.Greedy.ms", "ms", "lower"}, "throughput_rps, p50_ms", "serve-greedy"},
	{metricDef{"core.Greedy.evaluations", "count", "lower"}, "throughput_rps, p50_ms", "serve-greedy"},
	{metricDef{"diffusion.simulations", "count", "lower"}, "throughput_rps, p50_ms", "serve-greedy"},
	{metricDef{"diffusion.ns_per_simulation", "ns", "lower"}, "throughput_rps, p50_ms", "serve-greedy"},
	{metricDef{"dyngraph.ApplyDelta.ms", "ms", "lower"}, "repair_lag_*, stale_frac", "serve-delta"},
	{metricDef{"sketch.Repair.ms", "ms", "lower"}, "repair_lag_*, stale_frac", "serve-delta"},
	{metricDef{"sketch.Repair.kept_frac", "fraction", "higher"}, "repair_lag_*, stale_frac", "serve-delta"},
	{metricDef{"sketch.Repair.full_rebuilds", "count", "lower"}, "repair_lag_*, stale_frac", "serve-delta"},

	{metricDef{"stats.gate.shed", "count", "lower"}, "error_frac, tail_ms", "serve-*"},
	{metricDef{"stats.gate.quotaShed", "count", "lower"}, "error_frac, tail_ms", "serve-*"},
	{metricDef{"stats.coalesced", "count", "higher"}, "tail_ms", "serve-*"},
	{metricDef{"stats.sketch.hits", "count", "higher"}, "p50_ms, degraded_frac", "serve-*"},
	{metricDef{"stats.sketch.misses", "count", "lower"}, "p50_ms, degraded_frac", "serve-*"},
	{metricDef{"stats.sketch.builds", "count", "lower"}, "p50_ms, degraded_frac", "serve-*"},
	{metricDef{"stats.dynamic.repairedRealizations", "count", "lower"}, "repair_lag_*", "serve-delta"},
	{metricDef{"stats.dynamic.keptRealizations", "count", "higher"}, "repair_lag_*", "serve-delta"},
	{metricDef{"stats.dynamic.conflicts", "count", "lower"}, "error_frac", "serve-delta"},
	{metricDef{"stats.hedge.primaryWon", "count", "higher"}, "tail_ms", "serve-*"},
	{metricDef{"stats.hedge.hedgeWon", "count", "lower"}, "tail_ms, degraded_frac", "serve-*"},
	{metricDef{"stats.hedge.allFailed", "count", "lower"}, "error_frac", "serve-*"},
	{metricDef{"server.p50_ms", "ms", "lower"}, "p50_ms", "serve-*"},
	{metricDef{"transport.p50_ms", "ms", "lower"}, "p50_ms (client p50 minus server p50)", "serve-*"},
	{metricDef{"loadgen.late_ms", "ms", "lower"}, "measurement validity", "serve-ris serve-delta"},
	{metricDef{"trace.overhead_pct", "%", "lower"}, "none (traced minus untraced time)", "all"},
	{metricDef{"trace.spans", "count", "lower"}, "none", "all"},
}

// statsKeys maps /v1/stats delta keys onto their layer metric names.
var statsKeys = map[string]string{
	"shed":                         "stats.gate.shed",
	"quotaShed":                    "stats.gate.quotaShed",
	"coalesced":                    "stats.coalesced",
	"sketch.hits":                  "stats.sketch.hits",
	"sketch.misses":                "stats.sketch.misses",
	"sketch.builds":                "stats.sketch.builds",
	"dynamic.repairedRealizations": "stats.dynamic.repairedRealizations",
	"dynamic.keptRealizations":     "stats.dynamic.keptRealizations",
	"dynamic.conflicts":            "stats.dynamic.conflicts",
	"hedge.primaryWon":             "stats.hedge.primaryWon",
	"hedge.hedgeWon":               "stats.hedge.hedgeWon",
	"hedge.allFailed":              "stats.hedge.allFailed",
}

// reportOnly are the end-to-end metrics every run prints in its report
// beside the gated ones: the first group of layers.
var reportOnly = layers[:9]

// fillLayers turns a trace into the per-layer metrics, copies the
// workload's report-only end-to-end metrics alongside, and keeps the spans
// for the result file.
func fillLayers(res *result, tr *tracer) {
	ls := tr.layers()
	get := func(name string) layerStat {
		if l := ls[name]; l != nil {
			return *l
		}
		return layerStat{}
	}
	// Set-up layers are timed per call, like setup_s; sketch.Build is the
	// total over every build, beside its realization and pair counts.
	for _, name := range []string{"gen.Enron", "community.Louvain"} {
		res.Layers[name+".s"] = get(name).medianMs() / 1000
	}
	res.Layers["sketch.Build.s"] = get("sketch.Build").Self.Seconds()
	for _, name := range []string{"sketch.SolveGreedyRIS", "core.NewProblem", "core.SCBG", "bridge.Build", "bridge.Invert",
		"setcover.GreedyPartial", "heuristic.Proximity", "heuristic.MaxDegree", "core.Greedy", "dyngraph.ApplyDelta", "sketch.Repair"} {
		res.Layers[name+".ms"] = get(name).medianMs()
	}
	tr.mu.Lock()
	counts := make(map[string]float64, len(tr.counts))
	for k, v := range tr.counts {
		counts[k] = v
	}
	res.Layers["trace.spans"] = float64(len(tr.spans))
	res.Spans = append([]span(nil), tr.spans...)
	tr.mu.Unlock()

	if b := get("sketch.Build"); counts["sketch.Build.realizations"] > 0 {
		res.Layers["sketch.Build.ns_per_realization"] = float64(b.Self) / counts["sketch.Build.realizations"]
	}
	res.Layers["sketch.Build.realizations"] = counts["sketch.Build.realizations"]
	res.Layers["sketch.Build.pairs"] = counts["sketch.Build.pairs"]
	if n := get("sketch.SolveGreedyRIS").Calls; n > 0 {
		res.Layers["sketch.SolveGreedyRIS.evaluations"] = counts["sketch.SolveGreedyRIS.evaluations"] / float64(n)
	}
	if n := get("core.Greedy").Calls; n > 0 {
		res.Layers["core.Greedy.evaluations"] = counts["core.Greedy.evaluations"] / float64(n)
	}
	res.Layers["diffusion.simulations"] = counts["diffusion.simulations"]
	if sims := counts["diffusion.simulations"]; sims > 0 {
		res.Layers["diffusion.ns_per_simulation"] = float64(get("core.Greedy").Self) / sims
	}
	if r := counts["sketch.Repair.realizations"]; r > 0 {
		res.Layers["sketch.Repair.kept_frac"] = counts["sketch.Repair.kept"] / r
	}
	res.Layers["sketch.Repair.full_rebuilds"] = counts["sketch.Repair.full_rebuilds"]
	for _, m := range reportOnly {
		if v, ok := res.E2E[m.Name]; ok {
			res.Layers[m.Name] = v
		}
	}
}
