package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParseChaos covers the spec grammar.
func TestParseChaos(t *testing.T) {
	cf, err := parseChaos("load:1,solve:3/5:panic")
	if err != nil {
		t.Fatalf("parseChaos: %v", err)
	}
	if cf.load == nil || cf.load.FailOn != 1 || cf.load.Every != 0 || cf.load.Panic {
		t.Fatalf("load fault = %+v", cf.load)
	}
	if cf.solve == nil || cf.solve.FailOn != 3 || cf.solve.Every != 5 || !cf.solve.Panic {
		t.Fatalf("solve fault = %+v", cf.solve)
	}
	every, err := parseChaos("load:2/2")
	if err != nil || every.load == nil || every.load.FailOn != 2 || every.load.Every != 2 || every.load.Panic || every.solve != nil {
		t.Fatalf("load:2/2 = %+v, %v", every, err)
	}

	empty, err := parseChaos("")
	if err != nil || empty.load != nil || empty.solve != nil {
		t.Fatalf("empty spec = %+v, %v", empty, err)
	}

	for _, bad := range []string{
		"load", "load:x", "load:0", "load:1:boom", "reactor:1", "load:1/z",
		"sigma:1", "load:1/0", "load:1/-2", "load:1,load:5", "solve:1,solve:2/3:panic",
	} {
		if _, err := parseChaos(bad); err == nil {
			t.Fatalf("parseChaos(%q) accepted", bad)
		}
	}
}

// TestFaultEveryOneFromFirst regression-tests the FailOn=1, Every=1
// boundary: every single invocation fails — the first because n == FailOn,
// and each later n because (n-FailOn)%1 == 0.
func TestFaultEveryOneFromFirst(t *testing.T) {
	f := &fault{FailOn: 1, Every: 1}
	for i := 1; i <= 20; i++ {
		if err := f.Check(); !errors.Is(err, errInjected) {
			t.Fatalf("invocation %d: err = %v, want errInjected", i, err)
		}
	}
}

// TestFaultEveryWithoutFailOnDisabled regression-tests the FailOn=0
// boundary: Every alone is not a schedule, the fault stays disabled.
func TestFaultEveryWithoutFailOnDisabled(t *testing.T) {
	f := &fault{Every: 1}
	for i := 1; i <= 20; i++ {
		if err := f.Check(); err != nil {
			t.Fatalf("invocation %d: err = %v, want nil for FailOn=0", i, err)
		}
	}
	neg := &fault{FailOn: -3, Every: 2}
	for i := 1; i <= 20; i++ {
		if err := neg.Check(); err != nil {
			t.Fatalf("invocation %d: err = %v, want nil for negative FailOn", i, err)
		}
	}
}

// TestFaultOnceOnly fires exactly on invocation FailOn when Every is 0.
func TestFaultOnceOnly(t *testing.T) {
	f := &fault{FailOn: 3}
	for i := 1; i <= 10; i++ {
		err := f.Check()
		if i == 3 && !errors.Is(err, errInjected) {
			t.Fatalf("invocation 3: err = %v, want errInjected", err)
		}
		if i != 3 && err != nil {
			t.Fatalf("invocation %d: err = %v, want nil", i, err)
		}
	}
}

// TestFaultEverySchedule fires on FailOn and every Every-th call after.
func TestFaultEverySchedule(t *testing.T) {
	f := &fault{FailOn: 2, Every: 3}
	var failed []int
	for i := 1; i <= 12; i++ {
		if err := f.Check(); err != nil {
			failed = append(failed, i)
		}
	}
	if want := []int{2, 5, 8, 11}; fmt.Sprint(failed) != fmt.Sprint(want) {
		t.Fatalf("failed invocations = %v, want %v", failed, want)
	}
}

// TestFaultEvery runs the FailOn=2, Every=3 schedule in panic mode: the
// scheduled invocations 2, 5 and 8 panic, every other one passes.
func TestFaultEvery(t *testing.T) {
	f := &fault{FailOn: 2, Every: 3, Panic: true}
	var fired []int
	for i := 1; i <= 9; i++ {
		func() {
			defer func() {
				if recover() != nil {
					fired = append(fired, i)
				}
			}()
			if err := f.Check(); err != nil {
				t.Fatalf("invocation %d: err = %v, want a panic or nil in panic mode", i, err)
			}
		}()
	}
	if want := []int{2, 5, 8}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("panicked on %v, want %v", fired, want)
	}
}

// TestFaultNilCheck keeps Check nil-safe so optional faults need no guard.
func TestFaultNilCheck(t *testing.T) {
	var f *fault
	for i := 0; i < 3; i++ {
		if err := f.Check(); err != nil {
			t.Fatalf("nil fault Check = %v, want nil", err)
		}
	}
}

// TestChaosStorm is the end-to-end resilience gate: 60 concurrent solves
// against a daemon with injected selection faults and a flaky first graph
// load. Every single response must be one of
//
//   - an exact answer (200, degraded=false),
//   - an honestly-tagged degraded answer (200, degraded=true, reason set),
//   - a clean typed error (JSON envelope with a known code),
//
// the process must keep serving throughout, and the drain must then turn
// new solves away with the typed draining envelope.
func TestChaosStorm(t *testing.T) {
	// The greedy, auto and ris selections fail on call 10 and every 7th
	// after. The first instance build attempt fails too, exercising the
	// retry.
	chaos, err := parseChaos("load:1,solve:10/7")
	if err != nil {
		t.Fatalf("parseChaos: %v", err)
	}
	cfg := testConfig()
	cfg.maxInflight = 8
	cfg.maxWaiting = 64
	s := newServer(cfg, chaos, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	const n = 60
	type outcome struct {
		status int
		body   map[string]any
		err    error
	}
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Vary seed, algorithm and deadline so the storm hits every
			// ladder rung: exact, SCBG-degraded, deadline-degraded, shed.
			req := fmt.Sprintf(`{"algorithm":%q,"seed":%d,"samples":3,"timeoutMillis":%d}`,
				[]string{"auto", "greedy", "scbg"}[i%3], 1+uint64(i%2), []int{4000, 50, 1}[i%3])
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(req))
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			defer resp.Body.Close()
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				outcomes[i] = outcome{status: resp.StatusCode, err: fmt.Errorf("decode: %w", err)}
				return
			}
			outcomes[i] = outcome{status: resp.StatusCode, body: body}
		}()
	}
	wg.Wait()

	knownCodes := map[string]bool{
		codeShed: true, codeDeadline: true, codeInternal: true,
		codeCircuitOpen: true, codeDraining: true,
	}
	var exact, degraded, typed int
	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("request %d: transport/decode failure: %v", i, o.err)
		}
		switch o.status {
		case http.StatusOK:
			if o.body["degraded"].(bool) {
				if o.body["degradedReason"].(string) == "" {
					t.Fatalf("request %d: degraded without reason: %v", i, o.body)
				}
				degraded++
			} else {
				exact++
			}
		default:
			e, ok := o.body["error"].(map[string]any)
			if !ok {
				t.Fatalf("request %d: status %d with no envelope: %v", i, o.status, o.body)
			}
			code, _ := e["code"].(string)
			if !knownCodes[code] {
				t.Fatalf("request %d: unknown error code %q: %v", i, code, o.body)
			}
			typed++
		}
	}
	t.Logf("chaos storm: %d exact, %d degraded, %d typed errors", exact, degraded, typed)
	if exact+degraded == 0 {
		t.Fatal("not a single request was answered")
	}

	// The process survived; the drain now turns new work away cleanly.
	s.draining.Store(true)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("post-drain solve: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("post-drain decode: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || errorCode(t, body) != codeDraining {
		t.Fatalf("solve while draining = %d %v, want typed draining 503", resp.StatusCode, body)
	}
}

// TestChaosSolvePanicContained panics every LCRB-P selection: solveCover
// must recover it into the selection's error and degrade down the ladder,
// answering a degraded 200 — never a crash, never a bare 500 — for greedy
// and for ris with a warm sketch store alike.
func TestChaosSolvePanicContained(t *testing.T) {
	chaos, err := parseChaos("solve:1/1:panic")
	if err != nil {
		t.Fatalf("parseChaos: %v", err)
	}
	s := newServer(sketchTestConfig(""), nil, t.Logf)
	t.Cleanup(s.stop)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Warm the sketch store before arming the fault, so the ris request
	// below would otherwise be answered by the sketch.
	const ris = `{"algorithm":"ris","samples":3}`
	postSolve(t, ts.URL, ris)
	waitForBuilds(t, ts.URL, 1)
	if status, body := postSolve(t, ts.URL, ris); status != http.StatusOK || body["algorithm"] != "ris" {
		t.Fatalf("warm ris = %d %v, want an exact ris answer", status, body)
	}
	s.chaos = chaos

	for _, req := range []string{`{"algorithm":"greedy","samples":3}`, ris} {
		status, body := postSolve(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d body %v, want degraded 200", req, status, body)
		}
		if body["degraded"] != true || !strings.Contains(body["degradedReason"].(string), "selection panicked") {
			t.Fatalf("%s: poisoned selection not degraded with its panic: %v", req, body)
		}
	}
	if calls := chaos.solve.calls.Load(); calls != 2 {
		t.Fatalf("solve fault checked %d times, want once per selection (2)", calls)
	}
}

// TestChaosDrainCancelsInFlight simulates drain pressure mid-solve: the
// hard-drain context cancels a running greedy, and the response is still
// an honestly-tagged degraded 200 — never a hung or bare-failed request.
func TestChaosDrainCancelsInFlight(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	s.holdSolve = true
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Warm the instance cache so the solve below starts immediately.
	if status, body := postSolve(t, ts.URL, `{"algorithm":"scbg"}`); status != http.StatusOK {
		t.Fatalf("warmup: %d %v", status, body)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		s.hardStop()
	}()
	status, body := postSolve(t, ts.URL, `{"algorithm":"greedy","alpha":0.99}`)
	if status != http.StatusOK {
		t.Fatalf("drained solve = %d %v, want degraded 200", status, body)
	}
	if !body["degraded"].(bool) {
		t.Fatalf("drain-canceled solve not tagged degraded: %v", body)
	}
}
