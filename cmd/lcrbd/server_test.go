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
	"strings"
	"sync"
	"testing"
	"time"

	"lcrb/internal/core"
)

// testConfig is a fast serving configuration for httptest-backed tests:
// tiny networks, generous admission.
func testConfig() serverConfig {
	return serverConfig{
		scale:          0.03,
		seed:           1,
		communitySize:  80,
		defaultTimeout: 30 * time.Second,
		deadlineMargin: 50 * time.Millisecond,
		maxInflight:    4,
		maxWaiting:     16,
	}
}

// postSolve sends one solve request and decodes the response body.
func postSolve(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// errorCode extracts the envelope code from an error response body.
func errorCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

// TestSolveExactAndDeterministic serves an exact greedy answer twice and
// checks the two answers are identical: equal requests, equal protectors.
func TestSolveExactAndDeterministic(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := `{"algorithm":"greedy","alpha":0.9,"samples":5}`
	status, first := postSolve(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, first)
	}
	if first["degraded"].(bool) {
		t.Fatalf("exact solve tagged degraded: %v", first)
	}
	if first["algorithm"].(string) != "greedy" {
		t.Fatalf("algorithm = %v, want greedy", first["algorithm"])
	}
	_, second := postSolve(t, ts.URL, req)
	if fmt.Sprint(first["protectors"]) != fmt.Sprint(second["protectors"]) {
		t.Fatalf("equal requests gave different protectors:\n%v\n%v",
			first["protectors"], second["protectors"])
	}
}

// TestSolveDegradesUnderTinyDeadline sends greedy and auto a deadline
// that leaves SCBG no time either and expects the heuristic bottom rung:
// a 200 tagged Degraded with a reason — never a bare error.
func TestSolveDegradesUnderTinyDeadline(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Warm the instance cache so the tiny deadline bounds only the solve.
	if status, body := postSolve(t, ts.URL, `{"algorithm":"scbg"}`); status != http.StatusOK {
		t.Fatalf("warmup: status %d body %v", status, body)
	}
	for _, algo := range []string{"greedy", "auto"} {
		status, body := postSolve(t, ts.URL, fmt.Sprintf(`{"algorithm":%q,"timeoutMillis":1,"samples":5}`, algo))
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d, body %v (want degraded 200)", algo, status, body)
		}
		if !body["degraded"].(bool) || body["algorithm"] != "Proximity" {
			t.Fatalf("%s: 1ms deadline did not reach the heuristic rung: %v", algo, body)
		}
		reason := body["degradedReason"].(string)
		if reason == "" || (algo == "auto" && !strings.Contains(reason, "sketch")) {
			t.Fatalf("%s: reason %q, want one (naming the sketch for auto)", algo, reason)
		}
		if len(body["protectors"].([]any)) == 0 {
			t.Fatalf("%s: degraded answer has no protectors: %v", algo, body)
		}
	}
}

// TestSolveExplicitSCBGFailureNamesHeuristicOnce sends an explicit scbg a
// deadline that leaves SCBG no time: the reason must say SCBG failed and
// name the heuristic that actually served exactly once.
func TestSolveExplicitSCBGFailureNamesHeuristicOnce(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if status, body := postSolve(t, ts.URL, `{"algorithm":"scbg"}`); status != http.StatusOK {
		t.Fatalf("warmup: status %d body %v", status, body)
	}
	status, body := postSolve(t, ts.URL, `{"algorithm":"scbg","timeoutMillis":1}`)
	if status != http.StatusOK || body["degraded"] != true {
		t.Fatalf("status = %d, body %v (want degraded 200)", status, body)
	}
	algo, _ := body["algorithm"].(string)
	reason, _ := body["degradedReason"].(string)
	if !strings.HasPrefix(reason, "scbg failed (") {
		t.Fatalf("reason %q does not say scbg failed", reason)
	}
	if algo == "" || strings.Count(reason, "ranking") != 1 || !strings.HasSuffix(reason, ": served "+algo+" ranking") {
		t.Fatalf("reason %q must name the serving heuristic %q exactly once", reason, algo)
	}
}

// TestSolveCoalescedDegradesUnderTinyDeadline is the coalesced variant:
// identical 1 ms requests fired together share flights, and every caller —
// leader or waiter — receives the ladder's degraded 200, because waiters
// wait past the deadline for the answer the ladder serves at it.
func TestSolveCoalescedDegradesUnderTinyDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.maxInflight = 16
	cfg.maxWaiting = 16
	s := newServer(cfg, nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer s.stop()

	if status, body := postSolve(t, ts.URL, `{"algorithm":"scbg"}`); status != http.StatusOK {
		t.Fatalf("warmup: status %d body %v", status, body)
	}
	const n = 8
	for round := 0; round < 20 && s.flights.Coalesced() == 0; round++ {
		start := make(chan struct{})
		errs := make(chan string, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				status, body := postSolve(t, ts.URL, `{"algorithm":"greedy","timeoutMillis":1,"samples":5}`)
				if status != http.StatusOK || body["degraded"] != true {
					errs <- fmt.Sprintf("status %d body %v (want degraded 200)", status, body)
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("round %d: %s", round, e)
		}
	}
	if s.flights.Coalesced() == 0 {
		t.Fatal("no request ever joined another's flight: the test never exercised a coalesced waiter")
	}
}

// TestServedExplicitAnswersMatchInProcess pins the explicit algorithms to
// the library: a served greedy or scbg answer on testConfig()'s instance
// carries exactly the protectors core.GreedyContext and core.SCBGContext
// return when called in process with the options the serving rungs build.
func TestServedExplicitAnswersMatchInProcess(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	t.Cleanup(s.stop)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	for _, tc := range []struct {
		body  string
		solve func(*core.Problem, *resolvedRequest) ([]int32, error)
	}{
		{`{"algorithm":"greedy","alpha":0.9,"samples":5}`, func(p *core.Problem, req *resolvedRequest) ([]int32, error) {
			res, err := core.GreedyContext(context.Background(), p, core.GreedyOptions{
				Alpha: req.Alpha, Samples: req.Samples, Seed: req.Seed + 200, MaxHops: req.MaxHops,
			})
			if err != nil {
				return nil, err
			}
			return res.Protectors, nil
		}},
		{`{"algorithm":"scbg","alpha":0.9}`, func(p *core.Problem, req *resolvedRequest) ([]int32, error) {
			res, err := core.SCBGContext(context.Background(), p, core.SCBGOptions{Alpha: req.Alpha})
			if err != nil {
				return nil, err
			}
			return res.Protectors, nil
		}},
	} {
		status, served := postSolve(t, ts.URL, tc.body)
		if status != http.StatusOK || served["degraded"].(bool) {
			t.Fatalf("%s: status %d body %v, want an undegraded 200", tc.body, status, served)
		}
		req, err := decodeSolveRequest(strings.NewReader(tc.body), testConfig())
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.body, err)
		}
		inst, err := s.instance(req)
		if err != nil {
			t.Fatalf("%s: instance: %v", tc.body, err)
		}
		prob, err := inst.NewProblem(req.RumorFraction, s.requestRNG(req))
		if err != nil {
			t.Fatalf("%s: problem: %v", tc.body, err)
		}
		want, err := tc.solve(prob, req)
		if err != nil {
			t.Fatalf("%s: in-process solve: %v", tc.body, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: in-process solve selected no protectors", tc.body)
		}
		if got := fmt.Sprint(served["protectors"]); got != fmt.Sprint(want) {
			t.Fatalf("%s: served protectors %s, in-process %v", tc.body, got, want)
		}
	}
}

// TestSolveBadRequests answers typed 400s.
func TestSolveBadRequests(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	for _, body := range []string{
		`{"algorithm":"simulated-annealing"}`,
		`{"alpha":7}`,
		`{"scale":-1}`,
		`not json`,
	} {
		status, out := postSolve(t, ts.URL, body)
		if status != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, status)
		}
		if code := errorCode(t, out); code != codeBadRequest {
			t.Fatalf("body %q: code %q, want %q", body, code, codeBadRequest)
		}
	}
}

// TestShedWhenFull fills the gate and expects a typed 429.
func TestShedWhenFull(t *testing.T) {
	cfg := testConfig()
	cfg.maxInflight = 1
	cfg.maxWaiting = 0
	s := newServer(cfg, nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Occupy the only slot directly; the next request must shed.
	if err := s.gate.AcquireContext(context.Background(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer s.gate.Release(1)
	status, out := postSolve(t, ts.URL, `{"algorithm":"scbg"}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", status)
	}
	if code := errorCode(t, out); code != codeShed {
		t.Fatalf("code = %q, want %q", code, codeShed)
	}
}

// TestDrainingAnswersTyped503 flips draining and checks readyz and solve
// both answer the typed draining envelope while healthz stays 200.
func TestDrainingAnswersTyped503(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil || ready.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", ready.StatusCode, err)
	}
	ready.Body.Close()

	s.draining.Store(true)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	if code := errorCode(t, out); code != codeDraining {
		t.Fatalf("readyz code = %q, want %q", code, codeDraining)
	}

	status, body := postSolve(t, ts.URL, `{"algorithm":"scbg"}`)
	if status != http.StatusServiceUnavailable || errorCode(t, body) != codeDraining {
		t.Fatalf("solve while draining = %d %v, want typed 503", status, body)
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil || health.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %v %v", health.StatusCode, err)
	}
	health.Body.Close()
}

// TestCircuitOpensOnBrokenLoads fails every instance build and checks the
// breaker converts the failure storm into fast typed circuit_open answers.
func TestCircuitOpensOnBrokenLoads(t *testing.T) {
	chaos, err := parseChaos("load:1/1")
	if err != nil {
		t.Fatalf("parseChaos: %v", err)
	}
	s := newServer(testConfig(), chaos, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// FailureThreshold is 3: the first three solves fail on the build
	// itself, the fourth fails fast on the open circuit.
	for i := 0; i < 3; i++ {
		status, body := postSolve(t, ts.URL, `{"algorithm":"scbg"}`)
		if status != http.StatusInternalServerError {
			t.Fatalf("solve %d: status %d body %v, want 500", i, status, body)
		}
		if code := errorCode(t, body); code != codeInternal {
			t.Fatalf("solve %d: code %q, want %q", i, code, codeInternal)
		}
	}
	status, body := postSolve(t, ts.URL, `{"algorithm":"scbg"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d body %v, want 503 from open circuit", status, body)
	}
	if code := errorCode(t, body); code != codeCircuitOpen {
		t.Fatalf("code = %q, want %q", code, codeCircuitOpen)
	}
}

// TestPanicContained poisons a handler-visible path with a panicking
// request body reader — the middleware answers a typed 500 and the server
// keeps serving.
func TestPanicContained(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	mux := s.handler()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", panicReader{})
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if code := errorCode(t, out); code != codeInternal {
		t.Fatalf("code = %q, want %q", code, codeInternal)
	}

	// The server still answers after the panic.
	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("healthz after panic = %d, want 200", rec2.Code)
	}
}

// panicReader poisons the request body.
type panicReader struct{}

func (panicReader) Read([]byte) (int, error) { panic("poisoned body") }

// TestStatsEndpoint checks the counters surface.
func TestStatsEndpoint(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if status, body := postSolve(t, ts.URL, `{"algorithm":"scbg"}`); status != http.StatusOK {
		t.Fatalf("solve: %d %v", status, body)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if out["requests"].(float64) < 1 {
		t.Fatalf("requests = %v, want >= 1", out["requests"])
	}
	if out["breaker"].(string) != "closed" {
		t.Fatalf("breaker = %v, want closed", out["breaker"])
	}
}

// TestRunServesAndDrains boots the real daemon via run(), solves against
// it, then cancels the context (the first-interrupt path) with a solve in
// flight and requires a clean nil drain.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	portFile := filepath.Join(dir, "port")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var stdout, stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-port-file", portFile,
			"-scale", "0.03",
			"-drain", "5s",
			"-deadline", "30s",
		}, &stdout, &stderr)
	}()

	var port string
	for i := 0; i < 100; i++ {
		if b, err := os.ReadFile(portFile); err == nil {
			port = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if port == "" {
		t.Fatal("port file never appeared")
	}
	base := "http://127.0.0.1:" + port

	status, body := postSolve(t, base, `{"algorithm":"scbg"}`)
	if status != http.StatusOK {
		t.Fatalf("solve: %d %v", status, body)
	}

	// Launch a slow solve, then begin the drain while it is in flight.
	slowDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/solve", "application/json",
			strings.NewReader(`{"algorithm":"greedy","samples":5000,"alpha":0.99,"seed":5}`))
		if err != nil {
			slowDone <- -1
			return
		}
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want clean drain", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("drain did not finish")
	}
	select {
	case st := <-slowDone:
		if st != http.StatusOK {
			t.Fatalf("in-flight solve during drain answered %d, want 200", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight solve never answered")
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Fatalf("stderr missing drain log:\n%s", stderr.String())
	}
}
