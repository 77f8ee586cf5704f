package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulesAreDeterministic(t *testing.T) {
	pool := makePool(serveScale, hepSeeds, risFracs)
	gen := map[string]func(seed uint64) any{
		"serve-ris":    func(seed uint64) any { return risSchedule(seed, 15, pool) },
		"serve-greedy": func(seed uint64) any { return greedySchedule(seed, pool, 5) },
		"serve-delta": func(seed uint64) any {
			reads, deltas := deltaSchedule(seed, 15, pool[:2])
			return []any{reads, deltas}
		},
	}
	for name, g := range gen {
		a, err := json.Marshal(g(7))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(g(7))
		c, _ := json.Marshal(g(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

func TestRISScheduleOffersTheLadder(t *testing.T) {
	pool := makePool(serveScale, hepSeeds, risFracs)
	ops := risSchedule(3, 15, pool)
	counts := make([]int, len(risRates))
	for i, o := range ops {
		counts[o.Step]++
		if i > 0 && o.Due < ops[i-1].Due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
	}
	for step, rate := range risRates {
		if want := int(rate * 5); counts[step] != want {
			t.Errorf("step %d: %d requests, want %d", step, counts[step], want)
		}
	}
}

func TestDeltaScheduleIsValid(t *testing.T) {
	_, deltas := deltaSchedule(5, 60, []poolItem{{Seed: 1, Scale: serveScale, Frac: 0.05}})
	present := make(map[[2]int32]int)
	for k, d := range deltas {
		if d.Delta.BaseVersion != uint64(k+1) {
			t.Fatalf("delta %d: base version %d", k, d.Delta.BaseVersion)
		}
		for _, e := range d.Delta.RemoveEdges {
			if present[e] == 0 {
				t.Fatalf("delta %d removes %v, which no earlier delta added", k, e)
			}
			present[e]--
		}
		for _, e := range append(d.Delta.AddEdges, d.Delta.RemoveEdges...) {
			if e[0] == e[1] || e[0] < 0 || e[1] < 0 || e[0] >= deltaSpan || e[1] >= deltaSpan {
				t.Fatalf("delta %d: edge %v outside the [0,%d) window or a self-loop", k, e, deltaSpan)
			}
		}
		for _, e := range d.Delta.AddEdges {
			present[e]++
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for bp, want := range map[int]float64{5000: 50, 9000: 90, 9900: 99, 9990: 100, 100: 1} {
		if got := percentile(xs, bp); got != want {
			t.Errorf("percentile(1..100, %d) = %v, want %v", bp, got, want)
		}
	}
	if got := percentile([]float64{3, 7}, 5000); got != 3 {
		t.Errorf("p50 of {3,7} = %v, want 3 (nearest rank, no interpolation)", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		label string
	}{
		{5, "max"},
		{99, "max"},   // p90 rank 90 leaves 9 beyond
		{100, "p90"},  // p90 rank 90 leaves 10; p99 rank 99 leaves 1
		{999, "p90"},  // p99 rank 990 leaves 9
		{1000, "p99"}, // p99 rank 990 leaves 10
		{9999, "p99"},
		{10000, "p99.9"},
		{100000, "p99.99"},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		tail := tailOf(xs)
		if tail.label() != c.label || tail.N != c.n {
			t.Errorf("n = %d: tail at %s of %d, want %s", c.n, tail.label(), tail.N, c.label)
		}
		if beyond := c.n - int(tail.Value); c.label != "max" && beyond < minBeyond {
			t.Errorf("n = %d: only %d samples beyond %s", c.n, beyond, tail.label())
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 300 * time.Millisecond}
	const stall = 150 * time.Millisecond
	outs := openLoop(context.Background(), dues, 1, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, o := range outs {
		if !o.Sent {
			t.Fatalf("op %d not sent", i)
		}
	}
	// Ops 1 and 2 were due during the stall: they are late by the rest of
	// it, and that wait is part of their latency.
	for _, i := range []int{1, 2} {
		if want := stall - dues[i] - 5*time.Millisecond; outs[i].late() < want || outs[i].latency() < want {
			t.Errorf("op %d: late %v, latency %v; want both >= %v", i, outs[i].late(), outs[i].latency(), want)
		}
	}
	// Op 3 was due after the stall cleared: on time.
	if outs[3].late() > 50*time.Millisecond {
		t.Errorf("op 3 sent %v late after the stall had cleared", outs[3].late())
	}
}

func TestLatencyStatsTimesMedianFromSendAndTailFromDue(t *testing.T) {
	ms := time.Millisecond
	var reqs []served
	for i := 0; i < 41; i++ {
		// Every request takes 2 ms once sent; every third waited 10 ms in
		// the generator first.
		due := time.Duration(i) * 20 * ms
		start := due
		if i%3 == 0 {
			start += 10 * ms
		}
		reqs = append(reqs, served{op: op{ID: int64(i), Due: due},
			out: outcome{Sent: true, Due: due, Start: start, End: start + 2*ms}, ans: &solveAnswer{}})
	}
	res := &result{E2E: make(map[string]float64)}
	latencyStats(reqs, res, nil)
	if got := res.E2E["p50_ms"]; got != 2 {
		t.Errorf("p50_ms = %v, want 2 (send to answer)", got)
	}
	if got := res.E2E["tail_ms"]; got != 12 {
		t.Errorf("tail_ms = %v, want 12 (due to answer, queueing included)", got)
	}
}

func TestOpenLoopKeepsScheduleWhileWorkersAreBusy(t *testing.T) {
	dues := make([]time.Duration, 20)
	for i := range dues {
		dues[i] = time.Duration(i) * time.Millisecond
	}
	start := time.Now()
	var inFlight, peak atomic.Int32
	openLoop(context.Background(), dues, 2, func(context.Context, int) error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if peak.Load() > 2 {
		t.Errorf("%d ops in flight at once with 2 workers", peak.Load())
	}
	// 20 ops of 10ms on 2 workers need ~100ms however they arrive.
	if el := time.Since(start); el < 90*time.Millisecond {
		t.Errorf("finished in %v; workers were not the bottleneck", el)
	}
}

func TestClientCapsConnections(t *testing.T) {
	const conns = 2
	var mu sync.Mutex
	active, peak, opened := 0, 0, 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte("{}"))
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			opened++
			active++
			if active > peak {
				peak = active
			}
		case http.StateClosed, http.StateHijacked:
			active--
		}
	}
	srv.Start()
	defer srv.Close()
	client := newClient(conns)
	var wg sync.WaitGroup
	for i := 0; i < 4*conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak > conns || opened > conns {
		t.Errorf("%d connections open at once, %d opened in all; cap is %d", peak, opened, conns)
	}
}

func TestSelfTimeAndReconcile(t *testing.T) {
	ms := time.Millisecond
	tr := newTracer(true)
	tr.spans = []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "b", Start: 30 * ms, End: 60 * ms, Parent: 0}, // overlaps a
		{Name: "c", Start: 15 * ms, End: 20 * ms, Parent: 1},
	}
	self := selfTimes(tr.spans)
	want := []time.Duration{50 * ms, 25 * ms, 30 * ms, 5 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", tr.spans[i].Name, self[i], want[i])
		}
	}
	// a and b overlap, so their self times add up to more than the 50ms
	// they cover: the subtree sums to 110ms under a 100ms root.
	if err := tr.reconcile(); err == nil {
		t.Error("reconcile accepted overlapping sibling spans")
	}
	tr.spans[2].Start = 40 * ms
	if err := tr.reconcile(); err != nil {
		t.Errorf("reconcile rejected properly nested spans: %v", err)
	}
	if got := tr.layers()["a"].Self; got != 25*ms {
		t.Errorf("layer a self time %v, want 25ms", got)
	}
}

func TestUntracedTracerIsANoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	tr.count("x", 1)
	if id != -1 || len(tr.layers()) != 0 || tr.reconcile() != nil {
		t.Error("nil tracer recorded something")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables the benchmark prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, runners are %s", names, workloadNames())
	}
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark reports %d", len(bj.EndToEnd), len(gated))
	}
	for i, m := range bj.EndToEnd {
		if g := gated[i]; m.Name != g.Name || m.Unit != g.Unit || m.Better != g.Better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, benchmark reports %s/%s/%s", i, m.Name, m.Unit, m.Better, g.Name, g.Unit, g.Better)
		}
	}
	if len(bj.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark reports %d", len(bj.PerLayer), len(layers))
	}
	for i, m := range bj.PerLayer {
		if m != layers[i].metricDef {
			t.Errorf("per_layer[%d] = %+v, benchmark reports %+v", i, m, layers[i].metricDef)
		}
	}
}

func TestFinishPrintsSummaryLast(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := &config{Workload: "serve-ris", Seed: 1, Seconds: 1, Trace: trace, Workdir: t.TempDir()}
		res := newResult(cfg)
		res.Attempted = 3
		for _, g := range gated {
			res.E2E[g.Name] = 1.5
		}
		var out bytes.Buffer
		if _, err := finish(cfg, res, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("last line is not the summary: %v", err)
		}
		want := len(gated)
		if trace {
			want = len(layers)
		}
		if !sum.Correct || sum.Attempted != 3 || len(sum.Metrics) != want {
			t.Errorf("trace=%v: summary %+v, want correct with %d metrics", trace, sum, want)
		}
	}
}

func TestFailedOperationsAreNotMismatches(t *testing.T) {
	cfg := &config{Workload: "serve-ris", Seed: 1, Seconds: 1, Workdir: t.TempDir()}
	res := newResult(cfg)
	res.Attempted = 2
	for _, g := range gated {
		res.E2E[g.Name] = 1
	}
	res.failOp("request 1: 504")
	sum, err := finish(cfg, res, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Correct || sum.Failed != 1 {
		t.Errorf("after a failed request: correct %v, failed %d; want true, 1", sum.Correct, sum.Failed)
	}
	res.mismatch("request 2: answer differs from the oracle")
	if sum, _ = finish(cfg, res, io.Discard); sum.Correct {
		t.Error("a result with a mismatch is reported correct")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "serve-ris", "-seconds", "0"},
		{"-workload", "serve-ris", "-trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestLayerNamesAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range gated {
		seen[m.Name] = true
	}
	var dup []string
	for _, l := range layers {
		if seen[l.Name] {
			dup = append(dup, l.Name)
		}
		seen[l.Name] = true
	}
	sort.Strings(dup)
	if len(dup) > 0 {
		t.Errorf("metric names used twice: %v", dup)
	}
}
