// Command lcrbload is an open-loop load generator for the lcrbd daemon: it
// fires solve requests at a fixed arrival rate — never waiting for earlier
// answers, the way real traffic behaves — across a deterministic mix of
// tenants, algorithms, datasets and solve seeds, then writes a JSON report
// (BENCH_serve.json) with latency percentiles and the overload-behavior
// rates: shed, quota-shed, degraded and coalesce-hit.
//
// The mix is drawn from a seeded lcrb/internal/rng stream, so the same
// flags replay the same request sequence against the daemon. A small
// -solve-seeds pool keeps identical requests colliding in flight, which is
// what exercises the daemon's single-flight coalescing.
//
// Against a -dynamic daemon, -delta-rate adds a mixed solve+delta storm:
// a second seeded loop fires graph deltas at /v1/graph/delta while solves
// keep arriving, and the report grows a "delta" section with repair-lag
// percentiles (delta accepted -> served snapshot caught up) and the
// stale-serve rate (solve answers that admitted serving behind the master).
//
// Usage:
//
//	lcrbd -addr 127.0.0.1:8080 &
//	lcrbload -url http://127.0.0.1:8080 -rate 40 -duration 10s \
//	    -tenants gold:3,bronze:1 -out BENCH_serve.json
//	lcrbd -addr 127.0.0.1:8080 -dynamic &
//	lcrbload -url http://127.0.0.1:8080 -rate 20 -delta-rate 2 -duration 10s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lcrb/internal/resilience"
	"lcrb/internal/rng"
)

func main() {
	interrupt := resilience.Interrupt{
		OnFirst: func() {
			fmt.Fprintln(os.Stderr, "lcrbload: interrupt received, finishing in-flight requests — press again to force quit")
		},
	}
	ctx, stop := interrupt.Notify()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lcrbload:", err)
		os.Exit(1)
	}
}

// requestPlan is one pre-drawn request of the open-loop schedule.
type requestPlan struct {
	tenant        string
	algorithm     string
	dataset       string
	solveSeed     uint64
	timeoutMillis int64
}

// body renders the solve request JSON.
func (p requestPlan) body(samples int) string {
	return fmt.Sprintf(`{"algorithm":%q,"dataset":%q,"seed":%d,"samples":%d,"timeoutMillis":%d}`,
		p.algorithm, p.dataset, p.solveSeed, samples, p.timeoutMillis)
}

// weightedName is one element of a traffic mix with its relative weight.
type weightedName struct {
	name   string
	weight int64
}

// parseMix parses "name:weight,..." into an ordered weighted mix. Order
// follows the spec string, so the draw sequence is deterministic.
func parseMix(spec string) ([]weightedName, error) {
	if spec == "" {
		return nil, nil
	}
	var out []weightedName
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, weightStr, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("mix %q: want name:weight", part)
		}
		weight, err := strconv.ParseInt(weightStr, 10, 64)
		if err != nil || weight <= 0 {
			return nil, fmt.Errorf("mix %q: weight must be a positive integer", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("mix %q: duplicate name %q", spec, name)
		}
		seen[name] = true
		out = append(out, weightedName{name: name, weight: weight})
	}
	return out, nil
}

// pick draws one name from the mix in proportion to the weights.
func pick(src *rng.Source, mix []weightedName) string {
	var total int64
	for _, m := range mix {
		total += m.weight
	}
	x := int64(src.Intn(int(total)))
	for _, m := range mix {
		x -= m.weight
		if x < 0 {
			return m.name
		}
	}
	return mix[len(mix)-1].name
}

// buildPlan draws the deterministic request schedule: n requests whose
// tenant, algorithm, dataset and solve seed come from the seeded stream.
// solveSeeds bounds the distinct solve-seed pool — a small pool makes
// identical requests collide in flight, exercising coalescing.
func buildPlan(n int, seed uint64, tenants []weightedName, algorithms, datasets []string, solveSeeds int, timeoutMillis int64) []requestPlan {
	src := rng.New(seed)
	plan := make([]requestPlan, n)
	for i := range plan {
		p := requestPlan{
			algorithm:     algorithms[src.Intn(len(algorithms))],
			dataset:       datasets[src.Intn(len(datasets))],
			solveSeed:     1 + uint64(src.Intn(solveSeeds)),
			timeoutMillis: timeoutMillis,
		}
		if len(tenants) > 0 {
			p.tenant = pick(src, tenants)
		}
		plan[i] = p
	}
	return plan
}

// outcome classifies one request's answer.
type outcome struct {
	latency    time.Duration
	status     int
	code       string // envelope code on non-200s
	degraded   bool
	staleness  bool  // answer carried a staleness block (dynamic daemon)
	staleServe bool  // ...and it admitted serving behind the master
	err        error // transport or decode failure
}

// report is the BENCH_serve.json schema.
type report struct {
	Config   reportConfig   `json:"config"`
	Requests reportRequests `json:"requests"`
	Latency  reportLatency  `json:"latency"`
	Rates    reportRates    `json:"rates"`
	Delta    *reportDelta   `json:"delta,omitempty"`
	Server   map[string]any `json:"serverStatsDelta,omitempty"`
}

type reportConfig struct {
	URL           string  `json:"url"`
	Rate          float64 `json:"ratePerSecond"`
	DurationSecs  float64 `json:"durationSeconds"`
	Seed          uint64  `json:"seed"`
	Tenants       string  `json:"tenants,omitempty"`
	Algorithms    string  `json:"algorithms"`
	Datasets      string  `json:"datasets"`
	SolveSeeds    int     `json:"solveSeeds"`
	Samples       int     `json:"samples"`
	TimeoutMillis int64   `json:"timeoutMillis"`
	DeltaRate     float64 `json:"deltaRatePerSecond,omitempty"`
	DeltaSpan     int     `json:"deltaSpan,omitempty"`
}

type reportRequests struct {
	Issued          int `json:"issued"`
	OK              int `json:"ok"`
	OKDegraded      int `json:"okDegraded"`
	Shed            int `json:"shed"`
	QuotaShed       int `json:"quotaShed"`
	OtherErrors     int `json:"otherTypedErrors"`
	TransportErrors int `json:"transportErrors"`
}

// reportLatency summarizes the 200-answer latencies: the serving time of
// requests that received a protector set, degraded or not.
type reportLatency struct {
	Count     int     `json:"count"`
	P50Millis float64 `json:"p50Millis"`
	P99Millis float64 `json:"p99Millis"`
	P999Mills float64 `json:"p999Millis"`
	MaxMillis float64 `json:"maxMillis"`
}

// reportRates normalizes the overload counters. CoalesceHit is the
// daemon's coalesced-waiter count (from /v1/stats) over issued requests;
// -1 means the stats endpoint was unavailable.
type reportRates struct {
	Shed        float64 `json:"shed"`
	QuotaShed   float64 `json:"quotaShed"`
	Degraded    float64 `json:"degraded"`
	CoalesceHit float64 `json:"coalesceHit"`
}

// percentile is the nearest-rank percentile of sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// fetchStats reads the daemon's /v1/stats counters; nil when unavailable.
func fetchStats(client *http.Client, url string) map[string]any {
	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil
	}
	return out
}

// statDelta subtracts a numeric counter across two stats snapshots.
func statDelta(before, after map[string]any, key string) float64 {
	b, _ := before[key].(float64)
	a, _ := after[key].(float64)
	return a - b
}

// nestedDelta is statDelta over a counter nested one map deep (the
// dynamic section of /v1/stats).
func nestedDelta(before, after map[string]any, section, key string) float64 {
	b, _ := before[section].(map[string]any)
	a, _ := after[section].(map[string]any)
	if a == nil {
		return 0
	}
	return statDelta(b, a, key)
}

// run is the testable body of the generator.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lcrbload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url        = fs.String("url", "http://127.0.0.1:8080", "lcrbd base URL")
		rate       = fs.Float64("rate", 20, "request arrival rate per second (open loop: arrivals never wait for answers)")
		duration   = fs.Duration("duration", 5*time.Second, "how long to generate load")
		seed       = fs.Uint64("seed", 1, "seed of the traffic mix; equal seeds replay equal schedules")
		tenantMix  = fs.String("tenants", "", "tenant traffic mix as name:weight,... (empty = untagged default tenant)")
		algorithms = fs.String("algorithms", "auto,greedy,scbg", "comma-separated algorithm mix")
		datasets   = fs.String("datasets", "hep", "comma-separated dataset mix")
		solveSeeds = fs.Int("solve-seeds", 2, "distinct solve seeds in the mix (small pools collide in flight and coalesce)")
		samples    = fs.Int("samples", 3, "σ̂ samples per solve request")
		timeoutMs  = fs.Int64("request-timeout", 4000, "per-request solve deadline in milliseconds")
		deltaRate  = fs.Float64("delta-rate", 0, "graph-delta arrival rate per second against a -dynamic daemon (0 = solve-only profile)")
		deltaSpan  = fs.Int("delta-span", 64, "mutation endpoints are drawn from node ids [0, span)")
		out        = fs.String("out", "BENCH_serve.json", "report output path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rate <= 0 {
		return fmt.Errorf("-rate %v must be positive", *rate)
	}
	if *deltaRate < 0 {
		return fmt.Errorf("-delta-rate %v must not be negative", *deltaRate)
	}
	if *deltaRate > 0 && *deltaSpan < 2 {
		return fmt.Errorf("-delta-span %d needs at least two nodes to draw edges", *deltaSpan)
	}
	if *solveSeeds < 1 {
		return fmt.Errorf("-solve-seeds %d must be positive", *solveSeeds)
	}
	tenants, err := parseMix(*tenantMix)
	if err != nil {
		return fmt.Errorf("-tenants: %w", err)
	}
	algos := strings.Split(*algorithms, ",")
	data := strings.Split(*datasets, ",")
	n := int(*rate * duration.Seconds())
	if n < 1 {
		n = 1
	}

	plan := buildPlan(n, *seed, tenants, algos, data, *solveSeeds, *timeoutMs)
	client := &http.Client{Timeout: time.Duration(*timeoutMs)*time.Millisecond + 10*time.Second}
	before := fetchStats(client, *url)

	fmt.Fprintf(stdout, "lcrbload: %d requests at %.1f/s against %s\n", n, *rate, *url)

	// The delta storm runs beside the solve schedule: same wall-clock
	// window, its own seeded mutation stream, repair lag measured per
	// accepted delta.
	var stormRes *deltaStormResult
	var stormWG sync.WaitGroup
	if *deltaRate > 0 {
		storm := &deltaStorm{
			client: client, url: *url, rate: *deltaRate,
			span: int32(*deltaSpan), seed: *seed + 77,
		}
		stormWG.Add(1)
		go func() {
			defer stormWG.Done()
			stormRes = storm.run(ctx, *duration)
		}()
	}

	interval := time.Duration(float64(time.Second) / *rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	issued := 0
fireLoop:
	for i := range plan {
		select {
		case <-ctx.Done():
			break fireLoop
		case <-ticker.C:
		}
		issued++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = fire(client, *url, plan[i], *samples)
		}(i)
	}
	wg.Wait()
	stormWG.Wait()
	after := fetchStats(client, *url)

	var reqs reportRequests
	reqs.Issued = issued
	var okLatencies []time.Duration
	for _, o := range outcomes[:issued] {
		switch {
		case o.err != nil:
			reqs.TransportErrors++
		case o.status == http.StatusOK:
			okLatencies = append(okLatencies, o.latency)
			if o.degraded {
				reqs.OKDegraded++
			} else {
				reqs.OK++
			}
		case o.code == "shed":
			reqs.Shed++
		case o.code == "quota_exceeded":
			reqs.QuotaShed++
		default:
			reqs.OtherErrors++
		}
	}
	if issued > 0 && reqs.TransportErrors == issued {
		return fmt.Errorf("all %d requests failed at the transport: is lcrbd up at %s?", issued, *url)
	}

	sort.Slice(okLatencies, func(i, j int) bool { return okLatencies[i] < okLatencies[j] })
	lat := reportLatency{Count: len(okLatencies)}
	if len(okLatencies) > 0 {
		lat.P50Millis = millis(percentile(okLatencies, 0.50))
		lat.P99Millis = millis(percentile(okLatencies, 0.99))
		lat.P999Mills = millis(percentile(okLatencies, 0.999))
		lat.MaxMillis = millis(okLatencies[len(okLatencies)-1])
	}

	rates := reportRates{CoalesceHit: -1}
	if issued > 0 {
		rates.Shed = float64(reqs.Shed) / float64(issued)
		rates.QuotaShed = float64(reqs.QuotaShed) / float64(issued)
	}
	if answered := reqs.OK + reqs.OKDegraded; answered > 0 {
		rates.Degraded = float64(reqs.OKDegraded) / float64(answered)
	}
	var deltaRep *reportDelta
	if stormRes != nil {
		deltaRep = &reportDelta{
			Issued:             stormRes.issued,
			Conflicts:          stormRes.conflicts,
			Errors:             stormRes.errors,
			FinalMasterVersion: stormRes.finalVersion,
		}
		sort.Slice(stormRes.lags, func(i, j int) bool { return stormRes.lags[i] < stormRes.lags[j] })
		deltaRep.RepairLag = reportLatency{Count: len(stormRes.lags)}
		if len(stormRes.lags) > 0 {
			deltaRep.RepairLag.P50Millis = millis(percentile(stormRes.lags, 0.50))
			deltaRep.RepairLag.P99Millis = millis(percentile(stormRes.lags, 0.99))
			deltaRep.RepairLag.P999Mills = millis(percentile(stormRes.lags, 0.999))
			deltaRep.RepairLag.MaxMillis = millis(stormRes.lags[len(stormRes.lags)-1])
		}
		tagged := 0
		for _, o := range outcomes[:issued] {
			if o.err == nil && o.staleness {
				tagged++
				if o.staleServe {
					deltaRep.StaleServes++
				}
			}
		}
		if tagged > 0 {
			deltaRep.StaleServeRate = float64(deltaRep.StaleServes) / float64(tagged)
		}
	}

	rep := report{
		Config: reportConfig{
			URL: *url, Rate: *rate, DurationSecs: duration.Seconds(), Seed: *seed,
			Tenants: *tenantMix, Algorithms: *algorithms, Datasets: *datasets,
			SolveSeeds: *solveSeeds, Samples: *samples, TimeoutMillis: *timeoutMs,
		},
		Requests: reqs,
		Latency:  lat,
		Rates:    rates,
		Delta:    deltaRep,
	}
	if *deltaRate > 0 {
		rep.Config.DeltaRate = *deltaRate
		rep.Config.DeltaSpan = *deltaSpan
	}
	if before != nil && after != nil && issued > 0 {
		rates.CoalesceHit = statDelta(before, after, "coalesced") / float64(issued)
		rep.Rates = rates
		rep.Server = map[string]any{
			"requests":  statDelta(before, after, "requests"),
			"solves":    statDelta(before, after, "solves"),
			"coalesced": statDelta(before, after, "coalesced"),
			"shed":      statDelta(before, after, "shed"),
			"quotaShed": statDelta(before, after, "quotaShed"),
			"degraded":  statDelta(before, after, "degraded"),
			"canceled":  statDelta(before, after, "canceled"),
		}
		// The dynamic section only exists on -dynamic daemons; report its
		// counters when present.
		if _, dynamic := after["dynamic"]; dynamic {
			rep.Server["dynamic"] = map[string]any{
				"deltas":      nestedDelta(before, after, "dynamic", "deltas"),
				"conflicts":   nestedDelta(before, after, "dynamic", "conflicts"),
				"repairs":     nestedDelta(before, after, "dynamic", "repairs"),
				"staleServes": nestedDelta(before, after, "dynamic", "staleServes"),
			}
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal report: %w", err)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	fmt.Fprintf(stdout, "lcrbload: %d ok (%d degraded), %d shed, %d quota-shed, %d other errors, %d transport errors\n",
		reqs.OK+reqs.OKDegraded, reqs.OKDegraded, reqs.Shed, reqs.QuotaShed, reqs.OtherErrors, reqs.TransportErrors)
	fmt.Fprintf(stdout, "lcrbload: latency p50 %.1fms p99 %.1fms p999 %.1fms, coalesce hit rate %.3f\n",
		lat.P50Millis, lat.P99Millis, lat.P999Mills, rep.Rates.CoalesceHit)
	if deltaRep != nil {
		fmt.Fprintf(stdout, "lcrbload: %d deltas applied (%d conflicts, %d errors), repair lag p50 %.1fms p99 %.1fms, stale-serve rate %.3f\n",
			deltaRep.Issued, deltaRep.Conflicts, deltaRep.Errors,
			deltaRep.RepairLag.P50Millis, deltaRep.RepairLag.P99Millis, deltaRep.StaleServeRate)
	}
	fmt.Fprintf(stdout, "lcrbload: report -> %s\n", *out)
	if ctx.Err() != nil {
		return errors.New("interrupted before the schedule finished")
	}
	return nil
}

// fire issues one solve request and classifies its answer.
func fire(client *http.Client, url string, p requestPlan, samples int) outcome {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", strings.NewReader(p.body(samples)))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if p.tenant != "" {
		req.Header.Set("X-Tenant", p.tenant)
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	o := outcome{latency: time.Since(start), status: resp.StatusCode}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		o.err = fmt.Errorf("status %d: decode: %w", resp.StatusCode, err)
		return o
	}
	if resp.StatusCode == http.StatusOK {
		o.degraded, _ = body["degraded"].(bool)
		if st, ok := body["staleness"].(map[string]any); ok {
			o.staleness = true
			behind, _ := st["behindBatches"].(float64)
			o.staleServe = behind > 0
		}
		return o
	}
	if e, ok := body["error"].(map[string]any); ok {
		o.code, _ = e["code"].(string)
	}
	return o
}
