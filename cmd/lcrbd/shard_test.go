package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestParseShards covers the -shards spec grammar.
func TestParseShards(t *testing.T) {
	cases := []struct {
		spec  string
		count int
		urls  int
		ok    bool
	}{
		{"", 0, 0, true},
		{"3", 3, 0, true},
		{" 4 ", 4, 0, true},
		{"0", 0, 0, false},
		{"-2", 0, 0, false},
		{"http://a:1,http://b:2", 0, 2, true},
		{"https://a/", 0, 1, true},
		{"ftp://a", 0, 0, false},
		{"http://a,nonsense", 0, 0, false},
	}
	for _, c := range cases {
		count, urls, err := parseShards(c.spec)
		if (err == nil) != c.ok {
			t.Errorf("parseShards(%q) err = %v, ok want %v", c.spec, err, c.ok)
			continue
		}
		if err == nil && (count != c.count || len(urls) != c.urls) {
			t.Errorf("parseShards(%q) = (%d, %d urls), want (%d, %d)", c.spec, count, len(urls), c.count, c.urls)
		}
	}
	if _, urls, _ := parseShards("http://a/"); len(urls) == 1 && urls[0] != "http://a" {
		t.Errorf("trailing slash not trimmed: %q", urls[0])
	}
}

// TestParseShardOf covers the -shard-of i/n grammar.
func TestParseShardOf(t *testing.T) {
	cases := []struct {
		spec         string
		index, count int
		ok           bool
	}{
		{"", 0, 0, true},
		{"0/3", 0, 3, true},
		{"2/3", 2, 3, true},
		{"3/3", 0, 0, false},
		{"-1/3", 0, 0, false},
		{"1", 0, 0, false},
		{"a/b", 0, 0, false},
	}
	for _, c := range cases {
		index, count, err := parseShardOf(c.spec)
		if (err == nil) != c.ok {
			t.Errorf("parseShardOf(%q) err = %v, ok want %v", c.spec, err, c.ok)
			continue
		}
		if err == nil && (index != c.index || count != c.count) {
			t.Errorf("parseShardOf(%q) = %d/%d, want %d/%d", c.spec, index, count, c.index, c.count)
		}
	}
}

// statsSection fetches one top-level section of /v1/stats.
func statsSection(t *testing.T, url, section string) map[string]any {
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
	sec, _ := out[section].(map[string]any)
	return sec
}

// TestSolveShardedInProcMatchesLocal warms an in-process 3-shard tier and
// a plain local store on identical configs and demands the same
// protector set: the sharded scatter-gather is bit-identical to the
// single-store solve when nothing fails.
func TestSolveShardedInProcMatchesLocal(t *testing.T) {
	shardedCfg := sketchTestConfig("")
	shardedCfg.shardCount = 3
	sharded := newServer(shardedCfg, nil, t.Logf)
	t.Cleanup(sharded.stop)
	tsSharded := httptest.NewServer(sharded.handler())
	defer tsSharded.Close()

	local := newServer(sketchTestConfig(""), nil, t.Logf)
	t.Cleanup(local.stop)
	tsLocal := httptest.NewServer(local.handler())
	defer tsLocal.Close()

	req := `{"algorithm":"ris","alpha":0.9,"samples":5}`
	// First requests run cold: the ladder answers (tagged) while the
	// shard slices and the local sketch build in the background.
	postSolve(t, tsSharded.URL, req)
	postSolve(t, tsLocal.URL, req)
	waitForBuilds(t, tsLocal.URL, 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		sec := statsSection(t, tsSharded.URL, "shards")
		if sec != nil && sec["warmSets"].(float64) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard tier never warmed")
		}
		time.Sleep(20 * time.Millisecond)
	}

	status, got := postSolve(t, tsSharded.URL, req)
	if status != http.StatusOK {
		t.Fatalf("sharded status = %d, body %v", status, got)
	}
	if got["degraded"].(bool) {
		t.Fatalf("fault-free sharded solve tagged degraded: %v", got)
	}
	if got["algorithm"].(string) != "ris" {
		t.Fatalf("algorithm = %v, want ris", got["algorithm"])
	}
	census, ok := got["shards"].(map[string]any)
	if !ok {
		t.Fatalf("no shards census in %v", got)
	}
	if census["total"].(float64) != 3 || census["live"].(float64) != 3 || census["lostRealizations"].(float64) != 0 {
		t.Fatalf("census = %v, want 3/3 live, 0 lost", census)
	}

	_, want := postSolve(t, tsLocal.URL, req)
	if want["algorithm"].(string) != "ris" {
		t.Fatalf("local comparison run not served by ris: %v", want)
	}
	if fmt.Sprint(got["protectors"]) != fmt.Sprint(want["protectors"]) {
		t.Fatalf("sharded protectors %v differ from local %v", got["protectors"], want["protectors"])
	}

	sec := statsSection(t, tsSharded.URL, "shards")
	if sec["solves"].(float64) < 1 {
		t.Fatalf("shard tier stats did not count the solve: %v", sec)
	}
	if statsSection(t, tsSharded.URL, "hedge") == nil {
		t.Fatal("no hedge section in /v1/stats")
	}
}

// TestSolveShardWorkerTopology runs the real deployment shape: three
// lcrbd shard workers each serving POST /v1/shard for one slice, and a
// coordinator daemon scattering RIS solves over them by URL. The answer
// must match a plain local solve; killing a worker mid-service must
// degrade the next answer honestly, never hang or 500 it.
func TestSolveShardWorkerTopology(t *testing.T) {
	workers := make([]*httptest.Server, 3)
	for i := range workers {
		cfg := sketchTestConfig("")
		cfg.shardOfIndex, cfg.shardOfCount = i, 3
		w := newServer(cfg, nil, t.Logf)
		t.Cleanup(w.stop)
		workers[i] = httptest.NewServer(w.handler())
		defer workers[i].Close()
	}

	cfg := sketchTestConfig("")
	cfg.shardURLs = []string{workers[0].URL, workers[1].URL, workers[2].URL}
	coord := newServer(cfg, nil, t.Logf)
	t.Cleanup(coord.stop)
	tsCoord := httptest.NewServer(coord.handler())
	defer tsCoord.Close()

	local := newServer(sketchTestConfig(""), nil, t.Logf)
	t.Cleanup(local.stop)
	tsLocal := httptest.NewServer(local.handler())
	defer tsLocal.Close()

	req := `{"algorithm":"ris","alpha":0.9,"samples":5}`
	status, got := postSolve(t, tsCoord.URL, req)
	if status != http.StatusOK {
		t.Fatalf("scatter status = %d, body %v", status, got)
	}
	if got["algorithm"].(string) != "ris" || got["degraded"].(bool) {
		t.Fatalf("scatter answer not a clean ris solve: %v", got)
	}
	census := got["shards"].(map[string]any)
	if census["total"].(float64) != 3 || census["live"].(float64) != 3 {
		t.Fatalf("census = %v, want 3/3 live", census)
	}

	postSolve(t, tsLocal.URL, req)
	waitForBuilds(t, tsLocal.URL, 1)
	_, want := postSolve(t, tsLocal.URL, req)
	if want["algorithm"].(string) != "ris" {
		t.Fatalf("local comparison run not served by ris: %v", want)
	}
	if fmt.Sprint(got["protectors"]) != fmt.Sprint(want["protectors"]) {
		t.Fatalf("scattered protectors %v differ from local %v", got["protectors"], want["protectors"])
	}

	// Kill one worker: the next solve must still answer 200, tagged with
	// the loss, from the two survivors.
	workers[1].Close()
	status, lossy := postSolve(t, tsCoord.URL, req)
	if status != http.StatusOK {
		t.Fatalf("post-kill status = %d, body %v", status, lossy)
	}
	if !lossy["degraded"].(bool) {
		t.Fatalf("post-kill solve not tagged degraded: %v", lossy)
	}
	census = lossy["shards"].(map[string]any)
	if census["total"].(float64) != 3 || census["live"].(float64) != 2 || census["lostRealizations"].(float64) <= 0 {
		t.Fatalf("post-kill census = %v, want 2 of 3 live with lost realizations", census)
	}
}

// TestShardWorkerRejectsWrongCoordinates checks a worker configured as
// shard 1/3 refuses to serve any other slice.
func TestShardWorkerRejectsWrongCoordinates(t *testing.T) {
	cfg := sketchTestConfig("")
	cfg.shardOfIndex, cfg.shardOfCount = 1, 3
	w := newServer(cfg, nil, t.Logf)
	t.Cleanup(w.stop)
	ts := httptest.NewServer(w.handler())
	defer ts.Close()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/shard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"op":"init","solveId":"s","shard":1,"count":3}`); code != http.StatusOK {
		t.Fatalf("own slice got %d, want 200", code)
	}
	if code := post(`{"op":"init","solveId":"s","shard":0,"count":3}`); code != http.StatusInternalServerError {
		t.Fatalf("foreign slice got %d, want 500", code)
	}
}

// TestShardWarmUpStopsWithDrain starts an in-process slice build that
// takes seconds, then stops the server: the build must end with the drain
// scope and publish no host set, not run to completion inside stop.
func TestShardWarmUpStopsWithDrain(t *testing.T) {
	cfg := sketchTestConfig("")
	cfg.shardCount = 2
	cfg.sketchSamples = 20_000 // about 3s per slice at the test scale
	s := newServer(cfg, nil, t.Logf)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// A cold ris request starts the slice build in the background.
	if status, body := postSolve(t, ts.URL, `{"algorithm":"ris"}`); status != http.StatusOK {
		t.Fatalf("cold ris status = %d, body %v", status, body)
	}
	s.stop()

	s.shards.mu.Lock()
	warm, building := len(s.shards.hosts), len(s.shards.building)
	s.shards.mu.Unlock()
	if warm != 0 {
		t.Fatalf("stop published %d warm host sets from a build the drain canceled", warm)
	}
	if building != 0 {
		t.Fatalf("%d slice builds still flagged as building after stop", building)
	}
}
