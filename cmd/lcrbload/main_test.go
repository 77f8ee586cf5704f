package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// stubDaemon fakes just enough of lcrbd for the generator: a solve
// endpoint cycling through exact, degraded, shed and quota-shed answers,
// and a stats endpoint whose coalesced counter grows with traffic.
func stubDaemon() (*httptest.Server, *atomic.Int64) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		switch n % 5 {
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"shed","message":"overloaded"}}`)
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"quota_exceeded","message":"tenant over share"}}`)
		case 3:
			fmt.Fprint(w, `{"algorithm":"scbg","protectors":[1],"degraded":true,"degradedReason":"deadline"}`)
		default:
			fmt.Fprint(w, `{"algorithm":"greedy","protectors":[1,2],"degraded":false}`)
		}
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"requests":%d,"solves":%d,"coalesced":%d,"shed":0,"quotaShed":0,"degraded":0,"canceled":0}`,
			calls.Load(), calls.Load(), calls.Load()/2)
	})
	return httptest.NewServer(mux), &calls
}

// TestRunEmitsReport drives the generator against the stub and checks the
// report lands with every required metric filled in.
func TestRunEmitsReport(t *testing.T) {
	ts, calls := stubDaemon()
	defer ts.Close()
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")

	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts.URL,
		"-rate", "400",
		"-duration", "250ms",
		"-tenants", "gold:3,bronze:1",
		"-out", out,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if calls.Load() == 0 {
		t.Fatal("stub never saw a request")
	}

	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report missing: %v", err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Requests.Issued < 1 {
		t.Fatalf("issued = %d, want >= 1", rep.Requests.Issued)
	}
	answered := rep.Requests.OK + rep.Requests.OKDegraded
	if answered == 0 || rep.Latency.Count != answered {
		t.Fatalf("latency.count = %d, answered = %d", rep.Latency.Count, answered)
	}
	if rep.Latency.P50Millis <= 0 || rep.Latency.P99Millis < rep.Latency.P50Millis ||
		rep.Latency.P999Mills < rep.Latency.P99Millis {
		t.Fatalf("latency percentiles out of order: %+v", rep.Latency)
	}
	if rep.Requests.Shed == 0 || rep.Requests.QuotaShed == 0 {
		t.Fatalf("stub sheds never counted: %+v", rep.Requests)
	}
	if rep.Rates.Shed <= 0 || rep.Rates.QuotaShed <= 0 || rep.Rates.Degraded <= 0 {
		t.Fatalf("rates not populated: %+v", rep.Rates)
	}
	if rep.Rates.CoalesceHit < 0 {
		t.Fatalf("coalesce hit rate = %v, want stats-backed value", rep.Rates.CoalesceHit)
	}
	if rep.Server == nil || rep.Server["coalesced"].(float64) <= 0 {
		t.Fatalf("server stats delta missing: %v", rep.Server)
	}
	// A generic required-field sweep over the raw JSON, so a renamed tag
	// fails loudly here instead of in the smoke script.
	var raw map[string]any
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	lat := raw["latency"].(map[string]any)
	for _, key := range []string{"p50Millis", "p99Millis", "p999Millis"} {
		if _, ok := lat[key]; !ok {
			t.Fatalf("report latency missing %q: %v", key, lat)
		}
	}
	rates := raw["rates"].(map[string]any)
	for _, key := range []string{"shed", "quotaShed", "degraded", "coalesceHit"} {
		if _, ok := rates[key]; !ok {
			t.Fatalf("report rates missing %q: %v", key, rates)
		}
	}
}

// TestRunFailsWhenDaemonDown requires a typed failure, not an empty
// report, when nothing answers.
func TestRunFailsWhenDaemonDown(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-url", "http://127.0.0.1:1", // nothing listens on port 1
		"-rate", "100",
		"-duration", "50ms",
		"-out", out,
	}, &stdout, &stderr)
	if err == nil {
		t.Fatal("run succeeded against a dead daemon")
	}
}

// TestBuildPlanDeterministic pins the schedule: equal seeds replay equal
// mixes, different seeds do not, and the mix respects its vocabulary.
func TestBuildPlanDeterministic(t *testing.T) {
	tenants := []weightedName{{"gold", 3}, {"bronze", 1}}
	algos := []string{"auto", "greedy", "scbg"}
	data := []string{"hep"}
	a := buildPlan(200, 7, tenants, algos, data, 2, 4000)
	b := buildPlan(200, 7, tenants, algos, data, 2, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds drew different plans")
	}
	c := buildPlan(200, 8, tenants, algos, data, 2, 4000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew identical plans")
	}
	counts := map[string]int{}
	for _, p := range a {
		counts[p.tenant]++
		if p.solveSeed < 1 || p.solveSeed > 2 {
			t.Fatalf("solve seed %d out of pool", p.solveSeed)
		}
		if p.dataset != "hep" {
			t.Fatalf("dataset %q out of mix", p.dataset)
		}
	}
	// 3:1 weights over 200 draws: gold must clearly dominate.
	if counts["gold"] <= counts["bronze"] {
		t.Fatalf("tenant mix ignored the weights: %v", counts)
	}
}

// TestParseMixGrammar covers the mix syntax shared by -tenants.
func TestParseMixGrammar(t *testing.T) {
	got, err := parseMix("gold:3, bronze:1")
	if err != nil {
		t.Fatalf("parseMix: %v", err)
	}
	want := []weightedName{{"gold", 3}, {"bronze", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseMix = %v, want %v", got, want)
	}
	if empty, err := parseMix(""); err != nil || empty != nil {
		t.Fatalf("empty mix = %v, %v", empty, err)
	}
	for _, bad := range []string{"gold", "gold:0", "gold:x", ":1", "gold:1,gold:2"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("parseMix(%q) accepted", bad)
		}
	}
}

// TestPercentile pins the nearest-rank math on a known distribution.
func TestPercentile(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i)*time.Millisecond)
	}
	if got := percentile(sorted, 0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := percentile(sorted, 0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", got)
	}
	if got := percentile(sorted, 1); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
}

func TestNestedDelta(t *testing.T) {
	before := map[string]any{"dynamic": map[string]any{"deltas": 2.0}}
	after := map[string]any{"dynamic": map[string]any{"deltas": 7.0, "conflicts": 1.0}}
	if d := nestedDelta(before, after, "dynamic", "deltas"); d != 5 {
		t.Fatalf("deltas delta = %v, want 5", d)
	}
	// Counters that appear only in the after snapshot count from zero.
	if d := nestedDelta(before, after, "dynamic", "conflicts"); d != 1 {
		t.Fatalf("conflicts delta = %v, want 1", d)
	}
	// Sections missing from either snapshot are zero, not a panic.
	if d := nestedDelta(before, after, "sketch", "builds"); d != 0 {
		t.Fatalf("missing section delta = %v, want 0", d)
	}
	if d := nestedDelta(nil, nil, "dynamic", "deltas"); d != 0 {
		t.Fatalf("nil snapshots delta = %v, want 0", d)
	}
}

// dynStubDaemon fakes a -dynamic lcrbd: a delta endpoint with optimistic
// concurrency (the first apply races a fake background writer, so the
// storm sees one 409 and recovers), a served version that catches up a few
// milliseconds after each apply, and solve answers carrying staleness
// blocks — every third one admitting it served behind the master.
func dynStubDaemon() *httptest.Server {
	var solves, deltas, conflicts atomic.Int64
	var version, served atomic.Int64
	version.Store(1)
	served.Store(1)
	firstDelta := atomic.Bool{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		n := solves.Add(1)
		behind := 0
		if n%3 == 0 {
			behind = 1
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"algorithm":"greedy","protectors":[1,2],"degraded":false,"staleness":{"version":%d,"behindBatches":%d,"repairing":false}}`,
			served.Load(), behind)
	})
	mux.HandleFunc("POST /v1/graph/delta", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			BaseVersion int64 `json:"baseVersion"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		if firstDelta.CompareAndSwap(false, true) {
			version.Add(1) // fake concurrent writer wins the first race
		}
		w.Header().Set("Content-Type", "application/json")
		if req.BaseVersion != version.Load() {
			conflicts.Add(1)
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintf(w, `{"error":{"code":"version_conflict","message":"delta base version %d, master at version %d"}}`,
				req.BaseVersion, version.Load())
			return
		}
		v := version.Add(1)
		deltas.Add(1)
		go func() {
			time.Sleep(5 * time.Millisecond)
			served.Store(v)
		}()
		fmt.Fprintf(w, `{"version":%d,"staleness":{"version":%d,"behindBatches":%d,"repairing":true}}`,
			v, served.Load(), v-served.Load())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"requests":%d,"solves":%d,"coalesced":0,"dynamic":{"masterVersion":%d,"servedVersion":%d,"deltas":%d,"conflicts":%d,"repairs":%d,"staleServes":0}}`,
			solves.Load(), solves.Load(), version.Load(), served.Load(), deltas.Load(), conflicts.Load(), deltas.Load())
	})
	return httptest.NewServer(mux)
}

// TestRunDeltaStorm drives the mixed solve+delta profile and checks the
// report's delta section: repair-lag percentiles, the conflict recovery,
// and the stale-serve rate read off the solve answers.
func TestRunDeltaStorm(t *testing.T) {
	ts := dynStubDaemon()
	defer ts.Close()
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")

	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts.URL,
		"-rate", "200",
		"-delta-rate", "40",
		"-delta-span", "32",
		"-duration", "400ms",
		"-out", out,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}

	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report missing: %v", err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	d := rep.Delta
	if d == nil {
		t.Fatal("report has no delta section")
	}
	if d.Issued < 1 {
		t.Fatalf("deltas issued = %d, want >= 1", d.Issued)
	}
	if d.Conflicts < 1 {
		t.Fatalf("conflicts = %d, want the staged 409 counted", d.Conflicts)
	}
	if d.RepairLag.Count != d.Issued {
		t.Fatalf("repair lag count = %d, issued = %d: a repair was never observed", d.RepairLag.Count, d.Issued)
	}
	if d.RepairLag.P50Millis <= 0 || d.RepairLag.P99Millis < d.RepairLag.P50Millis {
		t.Fatalf("repair-lag percentiles out of order: %+v", d.RepairLag)
	}
	if d.StaleServes < 1 || d.StaleServeRate <= 0 || d.StaleServeRate > 1 {
		t.Fatalf("stale-serve accounting off: serves=%d rate=%v", d.StaleServes, d.StaleServeRate)
	}
	if d.FinalMasterVersion < 2 {
		t.Fatalf("final master version = %d, want >= 2", d.FinalMasterVersion)
	}
	if rep.Config.DeltaRate != 40 || rep.Config.DeltaSpan != 32 {
		t.Fatalf("delta config not recorded: %+v", rep.Config)
	}
	dyn, ok := rep.Server["dynamic"].(map[string]any)
	if !ok {
		t.Fatalf("server stats delta has no dynamic section: %v", rep.Server)
	}
	if dyn["deltas"].(float64) < 1 || dyn["conflicts"].(float64) < 1 {
		t.Fatalf("dynamic server deltas not populated: %v", dyn)
	}
	// A solve-only run against the same daemon must not grow the section.
	out2 := filepath.Join(t.TempDir(), "solo.json")
	if err := run(context.Background(), []string{
		"-url", ts.URL, "-rate", "100", "-duration", "100ms", "-out", out2,
	}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	blob2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(blob2, &raw); err != nil {
		t.Fatal(err)
	}
	if _, has := raw["delta"]; has {
		t.Fatal("solve-only report grew a delta section")
	}
	cfg := raw["config"].(map[string]any)
	if _, has := cfg["deltaRatePerSecond"]; has {
		t.Fatal("solve-only config records a delta rate")
	}
}
