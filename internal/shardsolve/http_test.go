package shardsolve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lcrb/internal/sketch"
)

// httpShards stands up one httptest server per host, each serving the
// shard protocol, and returns their base URLs.
func httpShards(t *testing.T, hosts []*Host) []string {
	t.Helper()
	urls := make([]string, len(hosts))
	for i, h := range hosts {
		srv := httptest.NewServer(NewHTTPHandler(h))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestHTTPBitIdentity runs the full solve over real HTTP round trips and
// demands the same bit-identical result as the in-process transport.
func TestHTTPBitIdentity(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := sketch.Options{Samples: 48, Seed: 7}
	full, err := sketch.Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sketch.SolveGreedyRIS(p, full, sketch.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	urls := httpShards(t, buildHosts(t, p, opts, 3, 0))
	c := fastCoordinator(NewHTTPTransport(urls, nil), 3)
	got, err := c.SolveContext(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameGreedy(t, got, want)
	if got.Degraded != "" {
		t.Fatalf("HTTP solve tagged %q", got.Degraded)
	}
}

// TestHTTPShardDeathDegrades closes one shard's server before the solve:
// the connection failures wrap ErrEndpointDown, the shard is excluded,
// and the result carries the honest loss tags.
func TestHTTPShardDeathDegrades(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	opts := sketch.Options{Samples: 48, Seed: 7}
	hosts := buildHosts(t, p, opts, 3, 0)
	urls := make([]string, 3)
	for i, h := range hosts {
		srv := httptest.NewServer(NewHTTPHandler(h))
		urls[i] = srv.URL
		if i == 1 {
			srv.Close() // shard 1 is dead before the solve starts
		} else {
			t.Cleanup(srv.Close)
		}
	}
	c := fastCoordinator(NewHTTPTransport(urls, nil), 3)
	c.RetryAttempts = 1 // a closed server won't come back; don't wait on it
	got, err := c.SolveContext(context.Background(), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded != DegradedShardLoss {
		t.Fatalf("Degraded = %q, want %q", got.Degraded, DegradedShardLoss)
	}
	lost := sketch.ShardRealizations(48, 1, 3)
	if got.Shards.Total != 3 || got.Shards.Live != 2 || got.Shards.LostRealizations != lost {
		t.Fatalf("census %+v, want {3, 2, %d}", got.Shards, lost)
	}
}

// TestHTTPHandlerRejects covers the handler's method and payload checks.
func TestHTTPHandlerRejects(t *testing.T) {
	p := testProblem(t, 300, 40, 41)
	slice, err := sketch.BuildShardContext(context.Background(), p, sketch.Options{Samples: 16, Seed: 7}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPHandler(NewHost(StaticProvider(slice))))
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + ShardPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET got %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+ShardPath, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body got %d, want 400", resp.StatusCode)
	}

	// A host failure (no slice for the coordinates) must surface as 500
	// so the client transport maps it to ErrEndpointDown.
	resp, err = http.Post(srv.URL+ShardPath, "application/json",
		strings.NewReader(`{"op":"init","solveId":"s","shard":3,"count":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("missing slice got %d, want 500", resp.StatusCode)
	}
}
