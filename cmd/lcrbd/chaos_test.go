package main

import (
	"encoding/json"
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
	cf, err := parseChaos("load:1,sigma:3/5:panic")
	if err != nil {
		t.Fatalf("parseChaos: %v", err)
	}
	if cf.load == nil || cf.load.FailOn != 1 || cf.load.Every != 0 || cf.load.Panic {
		t.Fatalf("load fault = %+v", cf.load)
	}
	if cf.sigma == nil || cf.sigma.FailOn != 3 || cf.sigma.Every != 5 || !cf.sigma.Panic {
		t.Fatalf("sigma fault = %+v", cf.sigma)
	}
	every, err := parseChaos("load:2/2")
	if err != nil || every.load == nil || every.load.FailOn != 2 || every.load.Every != 2 || every.load.Panic || every.sigma != nil {
		t.Fatalf("load:2/2 = %+v, %v", every, err)
	}

	empty, err := parseChaos("")
	if err != nil || empty.load != nil || empty.sigma != nil {
		t.Fatalf("empty spec = %+v, %v", empty, err)
	}

	for _, bad := range []string{"load", "load:x", "load:0", "load:1:boom", "reactor:1", "load:1/z"} {
		if _, err := parseChaos(bad); err == nil {
			t.Fatalf("parseChaos(%q) accepted", bad)
		}
	}
}

// TestChaosStorm is the end-to-end resilience gate: 60 concurrent solves
// against a daemon with injected σ̂ faults (including panics) and a flaky
// first graph load. Every single response must be one of
//
//   - an exact answer (200, degraded=false),
//   - an honestly-tagged degraded answer (200, degraded=true, reason set),
//   - a clean typed error (JSON envelope with a known code),
//
// the process must keep serving throughout, and the drain must then turn
// new solves away with the typed draining envelope.
func TestChaosStorm(t *testing.T) {
	// σ̂ realizations fail on call 10 and every 7th after — constantly —
	// and every 35th failure is a panic-shaped one via a second fault.
	// The first instance build attempt fails too, exercising the retry.
	chaos, err := parseChaos("load:1,sigma:10/7")
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

// TestChaosSigmaPanicContained injects panicking σ̂ realizations: the
// greedy's containment plus the ladder must turn them into degraded
// answers, never a crash, never a bare 500.
func TestChaosSigmaPanicContained(t *testing.T) {
	chaos, err := parseChaos("sigma:1/1:panic")
	if err != nil {
		t.Fatalf("parseChaos: %v", err)
	}
	s := newServer(testConfig(), chaos, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	status, body := postSolve(t, ts.URL, `{"algorithm":"greedy","samples":3}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d body %v, want degraded 200", status, body)
	}
	if !body["degraded"].(bool) {
		t.Fatalf("poisoned σ̂ served an undegraded answer: %v", body)
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
