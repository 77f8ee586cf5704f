package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// getStats fetches and decodes /v1/stats.
func getStats(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return out
}

// postSolveTenant is postSolve with an X-Tenant header.
func postSolveTenant(t *testing.T, url, tenant, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", strings.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
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

// TestSolveCoalescesIdenticalRequests is the single-flight acceptance
// gate: N concurrent identical solves execute exactly once — one leader
// run, N−1 coalesced waiters — and every caller receives the same answer.
func TestSolveCoalescesIdenticalRequests(t *testing.T) {
	cfg := testConfig()
	cfg.maxInflight = 16
	cfg.maxWaiting = 16
	s := newServer(cfg, nil, t.Logf)
	s.holdSolve = true
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer s.stop()

	// Warm the instance cache so the identical solves below spend their
	// time inside one coalescable greedy run, held in flight until its
	// deadline.
	if status, body := postSolve(t, ts.URL, `{"algorithm":"scbg","seed":9}`); status != http.StatusOK {
		t.Fatalf("warmup: %d %v", status, body)
	}
	before := getStats(t, ts.URL)

	const n = 8
	req := `{"algorithm":"greedy","alpha":0.99,"seed":9,"timeoutMillis":1000}`
	type result struct {
		status int
		body   map[string]any
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	fire := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := postSolve(t, ts.URL, req)
			results[i] = result{status, body}
		}()
	}

	// The leader first: wait until its solve execution has started (the
	// solves counter ticks inside the flight), then pile the waiters on.
	fire(0)
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, ts.URL)["solves"].(float64) < before["solves"].(float64)+1 {
		if time.Now().After(deadline) {
			t.Fatal("leader solve never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 1; i < n; i++ {
		fire(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d body %v", i, r.status, r.body)
		}
		if fmt.Sprint(r.body["protectors"]) != fmt.Sprint(results[0].body["protectors"]) {
			t.Fatalf("request %d answered different protectors:\n%v\n%v",
				i, r.body["protectors"], results[0].body["protectors"])
		}
	}
	after := getStats(t, ts.URL)
	if got := after["solves"].(float64) - before["solves"].(float64); got != 1 {
		t.Fatalf("solve executions = %v, want exactly 1", got)
	}
	if got := after["coalesced"].(float64) - before["coalesced"].(float64); got != n-1 {
		t.Fatalf("coalesced = %v, want %d", got, n-1)
	}
}

// TestSolveLeaderPanicAnswersTyped500 poisons the instance build with a
// panic-shaped fault on every attempt: concurrent identical requests ride
// the same panicking flight and every one of them must receive a typed
// internal envelope — never a hang, never a dropped connection.
func TestSolveLeaderPanicAnswersTyped500(t *testing.T) {
	chaos, err := parseChaos("load:1/1:panic")
	if err != nil {
		t.Fatalf("parseChaos: %v", err)
	}
	s := newServer(testConfig(), chaos, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer s.stop()

	const n = 6
	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([]map[string]any, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], bodies[i] = postSolve(t, ts.URL, `{"algorithm":"scbg"}`)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d body %v, want typed 500", i, statuses[i], bodies[i])
		}
		if code := errorCode(t, bodies[i]); code != codeInternal {
			t.Fatalf("request %d: code %q, want %q", i, code, codeInternal)
		}
	}
}

// TestTenantQuotaExceededTyped429 fills one tenant's fair queue share and
// checks the overflow answers the typed quota envelope while the stats
// endpoint attributes the shed to that tenant alone.
func TestTenantQuotaExceededTyped429(t *testing.T) {
	cfg := testConfig()
	cfg.maxInflight = 1
	cfg.maxWaiting = 2
	cfg.tenants = map[string]int64{"hot": 1} // share: 2·1/(1+1) = 1 slot
	s := newServer(cfg, nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer s.stop()

	// Hold the only in-flight slot so tenant requests queue.
	if err := s.gate.AcquireContext(context.Background(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	queued := make(chan int, 1)
	go func() {
		status, _ := postSolveTenant(t, ts.URL, "hot", `{"algorithm":"scbg"}`)
		queued <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.Waiting() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never waited")
		}
		time.Sleep(time.Millisecond)
	}

	// hot is at its share: the next hot request sheds with the quota code.
	status, body := postSolveTenant(t, ts.URL, "hot", `{"algorithm":"scbg"}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d body %v, want 429", status, body)
	}
	if code := errorCode(t, body); code != codeQuotaExceeded {
		t.Fatalf("code = %q, want %q", code, codeQuotaExceeded)
	}

	s.gate.Release(1)
	if st := <-queued; st != http.StatusOK {
		t.Fatalf("queued hot request answered %d, want 200", st)
	}

	stats := getStats(t, ts.URL)
	if got := stats["quotaShed"].(float64); got != 1 {
		t.Fatalf("quotaShed = %v, want 1", got)
	}
	tenants := stats["tenants"].(map[string]any)
	hot := tenants["hot"].(map[string]any)
	if hot["quotaShed"].(float64) != 1 {
		t.Fatalf("tenants.hot = %v, want quotaShed 1", hot)
	}
	if def := tenants["default"].(map[string]any); def["quotaShed"].(float64) != 0 {
		t.Fatalf("tenants.default = %v, want quotaShed 0", def)
	}
}

// TestClientDisconnectCountedNotDegraded cancels a request mid-solve: the
// handler classifies the canceled wait as a client disconnect (nginx's
// 499), counts it in the canceled counter, and never counts it degraded.
// The coalesced flight keeps running under the drain context.
func TestClientDisconnectCountedNotDegraded(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	s.holdSolve = true
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer s.stop()

	if status, body := postSolve(t, ts.URL, `{"algorithm":"scbg","seed":3}`); status != http.StatusOK {
		t.Fatalf("warmup: %d %v", status, body)
	}
	before := getStats(t, ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve",
		strings.NewReader(`{"algorithm":"greedy","alpha":0.99,"seed":3}`))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request completed with status %d, want cancellation", resp.StatusCode)
		}
		clientErr <- err
	}()

	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, ts.URL)["solves"].(float64) < before["solves"].(float64)+1 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-clientErr; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}

	for getStats(t, ts.URL)["canceled"].(float64) < before["canceled"].(float64)+1 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect never counted in the canceled counter")
		}
		time.Sleep(2 * time.Millisecond)
	}
	after := getStats(t, ts.URL)
	if got := after["degraded"].(float64) - before["degraded"].(float64); got != 0 {
		t.Fatalf("client disconnect counted as degraded: delta %v", got)
	}
}

// TestStatsReportsLoadCounters checks the overload-visibility stats fields:
// uptime, the rolling latency summary, and the per-tenant table.
func TestStatsReportsLoadCounters(t *testing.T) {
	cfg := testConfig()
	cfg.tenants = map[string]int64{"gold": 3}
	s := newServer(cfg, nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer s.stop()

	if status, body := postSolveTenant(t, ts.URL, "gold", `{"algorithm":"scbg"}`); status != http.StatusOK {
		t.Fatalf("solve: %d %v", status, body)
	}
	stats := getStats(t, ts.URL)
	if stats["uptimeMillis"].(float64) < 0 {
		t.Fatalf("uptimeMillis = %v", stats["uptimeMillis"])
	}
	lat := stats["latency"].(map[string]any)
	if lat["count"].(float64) < 1 {
		t.Fatalf("latency.count = %v, want >= 1", lat["count"])
	}
	if _, ok := lat["p50Millis"]; !ok {
		t.Fatalf("latency summary missing p50Millis: %v", lat)
	}
	if _, ok := lat["p99Millis"]; !ok {
		t.Fatalf("latency summary missing p99Millis: %v", lat)
	}
	for _, key := range []string{"coalesced", "solves", "quotaShed", "canceled", "streams"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("stats missing %q: %v", key, stats)
		}
	}
	tenants := stats["tenants"].(map[string]any)
	gold := tenants["gold"].(map[string]any)
	if gold["weight"].(float64) != 3 || gold["admitted"].(float64) != 1 {
		t.Fatalf("tenants.gold = %v, want weight 3 admitted 1", gold)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	event string
	data  map[string]any
}

// parseSSE decodes an event-stream body into its events.
func parseSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("event %q data: %v", cur.event, err)
			}
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan stream: %v", err)
	}
	return events
}

// checkTerminal asserts a stream ends with exactly one terminal event —
// a result carrying a valid answer or an error carrying a known code —
// and returns it.
func checkTerminal(t *testing.T, events []sseEvent) sseEvent {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("stream carried no events at all")
	}
	for i, ev := range events[:len(events)-1] {
		if ev.event != "round" {
			t.Fatalf("event %d is %q; only the last may be terminal: %+v", i, ev.event, events)
		}
	}
	last := events[len(events)-1]
	if last.event != "result" && last.event != "error" {
		t.Fatalf("stream ended with %q, want result or error", last.event)
	}
	return last
}

// TestSolveStreamRoundsThenResult drives the streaming endpoint on a plain
// greedy solve: every committed round arrives as a growing prefix and the
// terminal result matches both the last round and the non-streamed answer.
func TestSolveStreamRoundsThenResult(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer s.stop()

	req := `{"algorithm":"greedy","samples":5,"seed":2}`
	resp, err := http.Post(ts.URL+"/v1/solve/stream", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatalf("POST /v1/solve/stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	events := parseSSE(t, resp.Body)
	last := checkTerminal(t, events)
	if last.event != "result" {
		t.Fatalf("terminal = %+v, want result", last)
	}
	rounds := events[:len(events)-1]
	if len(rounds) == 0 {
		t.Fatal("no round events before the result")
	}
	for i, ev := range rounds {
		if int(ev.data["round"].(float64)) != i {
			t.Fatalf("round %d reported index %v", i, ev.data["round"])
		}
		if got := len(ev.data["protectors"].([]any)); got != i+1 {
			t.Fatalf("round %d prefix has %d protectors, want %d", i, got, i+1)
		}
	}
	lastPrefix := rounds[len(rounds)-1].data["protectors"]
	if fmt.Sprint(last.data["protectors"]) != fmt.Sprint(lastPrefix) {
		t.Fatalf("result protectors %v != last round prefix %v", last.data["protectors"], lastPrefix)
	}
	if last.data["degraded"].(bool) {
		t.Fatalf("plain greedy stream degraded: %v", last.data)
	}

	// The stream answers exactly what the plain endpoint answers.
	status, plain := postSolve(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("plain solve: %d %v", status, plain)
	}
	if fmt.Sprint(plain["protectors"]) != fmt.Sprint(last.data["protectors"]) {
		t.Fatalf("stream answered %v, plain endpoint %v", last.data["protectors"], plain["protectors"])
	}
}

// TestSolveStreamRejectsBeforeOpening checks the pre-stream error paths
// stay plain JSON envelopes: bad requests and draining never open an SSE.
func TestSolveStreamRejectsBeforeOpening(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer s.stop()

	resp, err := http.Post(ts.URL+"/v1/solve/stream", "application/json", strings.NewReader(`{"alpha":7}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != codeBadRequest {
		t.Fatalf("bad stream request = %d %v, want typed 400", resp.StatusCode, body)
	}

	s.draining.Store(true)
	resp, err = http.Post(ts.URL+"/v1/solve/stream", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body = nil
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || errorCode(t, body) != codeDraining {
		t.Fatalf("draining stream request = %d %v, want typed 503", resp.StatusCode, body)
	}
}

// TestChaosStormOverload is the composed end-to-end gate: concurrent
// coalescable solves, tenant-tagged traffic and streams against a daemon
// with injected selection faults, with a drain landing mid-storm. Every plain
// response must be exact, honestly degraded or a typed error; every stream
// that opened must end with exactly one terminal event (drain included);
// and the final stop() must return — no leaked flight, no hung stream.
func TestChaosStormOverload(t *testing.T) {
	chaos, err := parseChaos("solve:10/7")
	if err != nil {
		t.Fatalf("parseChaos: %v", err)
	}
	cfg := testConfig()
	cfg.maxInflight = 8
	cfg.maxWaiting = 8
	cfg.tenants = map[string]int64{"gold": 3, "bronze": 1}
	s := newServer(cfg, chaos, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	knownCodes := map[string]bool{
		codeShed: true, codeQuotaExceeded: true, codeDeadline: true,
		codeInternal: true, codeCircuitOpen: true, codeDraining: true,
	}
	tenantOf := func(i int) string { return []string{"gold", "gold", "bronze", ""}[i%4] }

	const solves, streams = 36, 12
	var wg sync.WaitGroup
	solveErrs := make([]error, solves)
	for i := 0; i < solves; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Two seeds and three algorithms: plenty of identical pairs in
			// flight, so coalescing happens under fault injection too.
			body := fmt.Sprintf(`{"algorithm":%q,"seed":%d,"samples":3,"timeoutMillis":%d}`,
				[]string{"auto", "greedy", "scbg"}[i%3], 1+uint64(i%2), []int{4000, 150, 1}[i%3])
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(body))
			if err != nil {
				solveErrs[i] = err
				return
			}
			if tenant := tenantOf(i); tenant != "" {
				req.Header.Set("X-Tenant", tenant)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				solveErrs[i] = err
				return
			}
			defer resp.Body.Close()
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				solveErrs[i] = fmt.Errorf("status %d: decode: %w", resp.StatusCode, err)
				return
			}
			if resp.StatusCode == http.StatusOK {
				if out["degraded"].(bool) && out["degradedReason"].(string) == "" {
					solveErrs[i] = fmt.Errorf("degraded without reason: %v", out)
				}
				return
			}
			e, ok := out["error"].(map[string]any)
			if !ok {
				solveErrs[i] = fmt.Errorf("status %d with no envelope: %v", resp.StatusCode, out)
				return
			}
			if code, _ := e["code"].(string); !knownCodes[code] {
				solveErrs[i] = fmt.Errorf("unknown error code %q: %v", code, out)
			}
		}()
	}
	streamErrs := make([]error, streams)
	for i := 0; i < streams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"algorithm":"greedy","seed":%d,"samples":20,"alpha":0.99}`, 50+i)
			resp, err := http.Post(ts.URL+"/v1/solve/stream", "application/json", strings.NewReader(body))
			if err != nil {
				streamErrs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				// Shed or quota-shed before the stream opened: must be a
				// typed envelope.
				var out map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					streamErrs[i] = fmt.Errorf("status %d: decode: %w", resp.StatusCode, err)
					return
				}
				e, ok := out["error"].(map[string]any)
				if !ok {
					streamErrs[i] = fmt.Errorf("status %d with no envelope: %v", resp.StatusCode, out)
					return
				}
				if code, _ := e["code"].(string); !knownCodes[code] {
					streamErrs[i] = fmt.Errorf("unknown error code %q", code)
				}
				return
			}
			var events []sseEvent
			var cur sseEvent
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				line := sc.Text()
				switch {
				case strings.HasPrefix(line, "event: "):
					cur.event = strings.TrimPrefix(line, "event: ")
				case strings.HasPrefix(line, "data: "):
					if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
						streamErrs[i] = fmt.Errorf("event %q: %w", cur.event, err)
						return
					}
				case line == "":
					if cur.event != "" {
						events = append(events, cur)
					}
					cur = sseEvent{}
				}
			}
			if err := sc.Err(); err != nil {
				streamErrs[i] = fmt.Errorf("scan: %w", err)
				return
			}
			if len(events) == 0 {
				streamErrs[i] = fmt.Errorf("stream ended with no events")
				return
			}
			for j, ev := range events[:len(events)-1] {
				if ev.event != "round" {
					streamErrs[i] = fmt.Errorf("event %d is %q before the terminal", j, ev.event)
					return
				}
			}
			switch last := events[len(events)-1]; last.event {
			case "result":
				if last.data["degraded"].(bool) && last.data["degradedReason"].(string) == "" {
					streamErrs[i] = fmt.Errorf("degraded result without reason: %v", last.data)
				}
			case "error":
				if code, _ := last.data["code"].(string); !knownCodes[code] {
					streamErrs[i] = fmt.Errorf("terminal error with unknown code %q", code)
				}
			default:
				streamErrs[i] = fmt.Errorf("stream ended with %q, want result or error", last.event)
			}
		}()
	}

	// Land the drain mid-storm: stop admitting and cancel in-flight work
	// the way run() does past its soft deadline.
	time.Sleep(400 * time.Millisecond)
	s.draining.Store(true)
	s.hardStop()
	wg.Wait()

	for i, err := range solveErrs {
		if err != nil {
			t.Errorf("solve %d: %v", i, err)
		}
	}
	for i, err := range streamErrs {
		if err != nil {
			t.Errorf("stream %d: %v", i, err)
		}
	}

	// stop() must return promptly: no leaked coalesced leader, no stuck
	// sketch build.
	done := make(chan struct{})
	go func() { s.stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stop() hung after the storm")
	}
}
