package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sketchTestConfig enables the RIS fast rung on the fast test instance.
func sketchTestConfig(dir string) serverConfig {
	cfg := testConfig()
	cfg.sketchSamples = 32
	cfg.sketchDir = dir
	return cfg
}

// sketchStats fetches the sketch section of /v1/stats.
func sketchStats(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	sk, _ := out["sketch"].(map[string]any)
	return sk
}

// waitForBuilds polls until the store reports at least n completed builds.
func waitForBuilds(t *testing.T, url string, n float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		sk := sketchStats(t, url)
		if sk != nil && sk["builds"].(float64) >= n {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("sketch build did not complete in time")
}

// checkSketchDegraded asserts the auto/ris ladder's degraded answer: an
// SCBG cover, tagged degraded, whose reason names the sketch.
func checkSketchDegraded(t *testing.T, status int, body map[string]any, reason string) {
	t.Helper()
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, body)
	}
	if body["algorithm"] != "scbg" || body["degraded"] != true {
		t.Fatalf("want a degraded scbg answer, got %v", body)
	}
	if got, _ := body["degradedReason"].(string); !strings.Contains(got, reason) {
		t.Fatalf("reason = %q, want it to name %q", got, reason)
	}
	if len(body["protectors"].([]any)) == 0 {
		t.Fatalf("degraded answer has no protectors: %v", body)
	}
}

// TestSolveRISColdDegradesThenWarmServes is the fast rung's lifecycle for
// both ris and auto: a request against a cold store degrades honestly to
// the SCBG cover (tagged with the cold sketch) while a build warms the
// store; once warm, identical requests are served by the sketch,
// deterministically.
func TestSolveRISColdDegradesThenWarmServes(t *testing.T) {
	for _, algo := range []string{"ris", "auto"} {
		t.Run(algo, func(t *testing.T) {
			s := newServer(sketchTestConfig(""), nil, t.Logf)
			t.Cleanup(s.stop)
			ts := httptest.NewServer(s.handler())
			defer ts.Close()

			req := fmt.Sprintf(`{"algorithm":%q,"alpha":0.9,"samples":5}`, algo)
			status, cold := postSolve(t, ts.URL, req)
			checkSketchDegraded(t, status, cold, "sketch store cold")
			waitForBuilds(t, ts.URL, 1)

			status, warm := postSolve(t, ts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("warm status = %d, body %v", status, warm)
			}
			if warm["algorithm"].(string) != "ris" {
				t.Fatalf("warm algorithm = %v, want ris", warm["algorithm"])
			}
			if warm["degraded"].(bool) {
				t.Fatalf("warm ris answer tagged degraded: %v", warm)
			}
			if len(warm["protectors"].([]any)) == 0 {
				t.Fatalf("warm ris answer selected no protectors: %v", warm)
			}
			_, again := postSolve(t, ts.URL, req)
			if fmt.Sprint(warm["protectors"]) != fmt.Sprint(again["protectors"]) {
				t.Fatalf("equal warm requests gave different protectors:\n%v\n%v",
					warm["protectors"], again["protectors"])
			}

			sk := sketchStats(t, ts.URL)
			if sk == nil {
				t.Fatal("no sketch section in /v1/stats")
			}
			if sk["misses"].(float64) < 1 || sk["hits"].(float64) < 2 {
				t.Fatalf("sketch counters did not record the lifecycle: %v", sk)
			}
			if _, ok := sk["newestBuildAgeSeconds"].(float64); !ok {
				t.Fatalf("no build age reported after a build: %v", sk)
			}
		})
	}
}

// TestSolveAutoServesFromWarmSketch checks that auto is ris: against cold
// stores the two answer the same SCBG cover, and once the store is warm,
// auto answers from the sketch without degradation.
func TestSolveAutoServesFromWarmSketch(t *testing.T) {
	cold := map[string]map[string]any{}
	var autoURL string
	for _, algo := range []string{"ris", "auto"} {
		s := newServer(sketchTestConfig(""), nil, t.Logf)
		t.Cleanup(s.stop)
		ts := httptest.NewServer(s.handler())
		defer ts.Close()
		status, body := postSolve(t, ts.URL, fmt.Sprintf(`{"algorithm":%q,"samples":5}`, algo))
		checkSketchDegraded(t, status, body, "sketch store cold")
		cold[algo] = body
		autoURL = ts.URL
	}
	if fmt.Sprint(cold["auto"]["protectors"]) != fmt.Sprint(cold["ris"]["protectors"]) {
		t.Fatalf("cold auto and cold ris answered differently:\n%v\n%v",
			cold["auto"]["protectors"], cold["ris"]["protectors"])
	}
	waitForBuilds(t, autoURL, 1)

	status, warm := postSolve(t, autoURL, `{"algorithm":"auto","samples":5}`)
	if status != http.StatusOK {
		t.Fatalf("warm status = %d, body %v", status, warm)
	}
	if warm["algorithm"].(string) != "ris" {
		t.Fatalf("warm auto algorithm = %v, want ris", warm["algorithm"])
	}
	if warm["degraded"].(bool) {
		t.Fatalf("warm sketch answer tagged degraded: %v", warm)
	}
}

// TestSolveRISDisabledDegradesHonestly: with the rung disabled, ris and
// auto still answer — the SCBG cover, degraded, with the disablement as
// the reason.
func TestSolveRISDisabledDegradesHonestly(t *testing.T) {
	s := newServer(testConfig(), nil, t.Logf) // sketchSamples 0: rung off
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	for _, algo := range []string{"ris", "auto"} {
		status, body := postSolve(t, ts.URL, fmt.Sprintf(`{"algorithm":%q,"samples":5}`, algo))
		checkSketchDegraded(t, status, body, "sketch rung disabled")
	}
}

// TestSketchStorePersistsAcrossRestart: a sketch built by one daemon is
// served warm by the next one pointed at the same -sketch-dir, and a
// tampered (stale) file is rejected and rebuilt, never served.
func TestSketchStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := `{"algorithm":"ris","alpha":0.9,"samples":5}`

	s1 := newServer(sketchTestConfig(dir), nil, t.Logf)
	t.Cleanup(s1.stop)
	ts1 := httptest.NewServer(s1.handler())
	postSolve(t, ts1.URL, req)
	waitForBuilds(t, ts1.URL, 1)
	ts1.Close()

	files, err := filepath.Glob(filepath.Join(dir, "sketch-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("persisted sketch files = %v (err %v), want exactly 1", files, err)
	}

	// A fresh daemon on the same directory serves warm immediately.
	s2 := newServer(sketchTestConfig(dir), nil, t.Logf)
	t.Cleanup(s2.stop)
	ts2 := httptest.NewServer(s2.handler())
	status, body := postSolve(t, ts2.URL, req)
	ts2.Close()
	if status != http.StatusOK || body["algorithm"].(string) != "ris" || body["degraded"].(bool) {
		t.Fatalf("restarted daemon did not serve warm from disk: status %d body %v", status, body)
	}

	// Tamper the stored fingerprint: the next daemon must reject it as
	// stale (counted, logged) and degrade rather than serve it.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), "model=opoao", "model=tampered", 1)
	if tampered == string(data) {
		t.Fatal("fingerprint marker not found in stored sketch")
	}
	if err := os.WriteFile(files[0], []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := newServer(sketchTestConfig(dir), nil, t.Logf)
	t.Cleanup(s3.stop)
	ts3 := httptest.NewServer(s3.handler())
	defer ts3.Close()
	status, body = postSolve(t, ts3.URL, req)
	if status != http.StatusOK {
		t.Fatalf("stale-store status = %d, body %v", status, body)
	}
	if body["algorithm"].(string) == "ris" && !body["degraded"].(bool) {
		t.Fatalf("stale sketch served as a warm answer: %v", body)
	}
	if sk := sketchStats(t, ts3.URL); sk["stale"].(float64) < 1 {
		t.Fatalf("stale sketch not counted: %v", sk)
	}
}
