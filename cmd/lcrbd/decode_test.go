package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDecodeSolveRequestBounds is the table-driven boundary sweep over the
// request validators. Note the zero-value shadow: a literal 0 for
// rumorFraction, alpha, scale or maxHops is indistinguishable from "field
// absent" in JSON, so it inherits the default instead of tripping the
// (0,1] check — the table pins that down too.
func TestDecodeSolveRequestBounds(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		wantErr string // empty means the request must decode cleanly
	}{
		{"negative rumorFraction", `{"rumorFraction":-0.1}`, "rumorFraction -0.1 out of (0,1]"},
		{"rumorFraction above one", `{"rumorFraction":1.5}`, "rumorFraction 1.5 out of (0,1]"},
		{"rumorFraction exactly one", `{"rumorFraction":1}`, ""},
		{"rumorFraction zero defaults", `{"rumorFraction":0}`, ""},
		{"rumorFraction in range", `{"rumorFraction":0.2}`, ""},
		{"negative alpha", `{"alpha":-0.5}`, "alpha = -0.5 out of (0,1)"},
		{"alpha above one", `{"alpha":7}`, "alpha = 7 out of (0,1)"},
		// α's interval depends on the algorithm: the fractional solvers
		// (auto/greedy/ris) reject α = 1 as a bad request — it used to
		// clear decoding and surface from the solver as "internal" — while
		// SCBG and the heuristics accept it (the paper's LCRB-D).
		{"alpha exactly one rejected for auto", `{"alpha":1}`, "alpha = 1 out of (0,1)"},
		{"alpha exactly one rejected for greedy", `{"algorithm":"greedy","alpha":1}`, "alpha = 1 out of (0,1)"},
		{"alpha exactly one rejected for ris", `{"algorithm":"ris","alpha":1}`, "alpha = 1 out of (0,1)"},
		{"alpha exactly one ok for scbg", `{"algorithm":"scbg","alpha":1}`, ""},
		{"alpha exactly one ok for proximity", `{"algorithm":"proximity","alpha":1}`, ""},
		{"alpha exactly one ok for maxdegree", `{"algorithm":"maxdegree","alpha":1}`, ""},
		{"alpha above one rejected for scbg", `{"algorithm":"scbg","alpha":1.5}`, "alpha = 1.5 out of (0,1]"},
		// NaN cannot be encoded in JSON at all, so the decoder rejects it
		// before validation — still a bad_request, never an internal error.
		{"alpha NaN rejected at decode", `{"alpha":NaN}`, "decode request"},
		{"alpha zero defaults", `{"alpha":0}`, ""},
		{"negative maxHops", `{"maxHops":-1}`, "maxHops -1 must not be negative"},
		{"maxHops zero defaults", `{"maxHops":0}`, ""},
		{"maxHops positive", `{"maxHops":5}`, ""},
		{"negative scale", `{"scale":-1}`, "scale -1 out of (0,1]"},
		{"scale above one", `{"scale":2}`, "scale 2 out of (0,1]"},
		{"negative samples", `{"samples":-3}`, "samples -3 must not be negative"},
		{"samples at the limit", `{"algorithm":"greedy","samples":5000}`, ""},
		{"samples above the limit", `{"algorithm":"greedy","samples":5001}`, "samples 5001 above the limit 5000"},
		{"samples overflowing an allocation", `{"algorithm":"greedy","samples":4611686018427387904}`, "samples 4611686018427387904 above the limit 5000"},
		{"negative timeout", `{"timeoutMillis":-1}`, "timeoutMillis -1 must not be negative"},
		{"timeout overflowing a duration", `{"timeoutMillis":9223372036854775807}`, "timeoutMillis 9223372036854775807 out of range"},
		{"negative communitySize", `{"communitySize":-2}`, "communitySize -2 must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeSolveRequest(strings.NewReader(tc.body), testConfig())
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("decode(%s) = %v, want ok", tc.body, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("decode(%s) accepted, want %q", tc.body, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("decode(%s) = %q, want it to contain %q", tc.body, err, tc.wantErr)
			}
		})
	}
}

// TestDecodeSolveRequestDefaults pins the zero-value fills: absent fields
// inherit the server config and the documented constants.
func TestDecodeSolveRequestDefaults(t *testing.T) {
	cfg := testConfig()
	req, err := decodeSolveRequest(strings.NewReader(`{}`), cfg)
	if err != nil {
		t.Fatalf("decode empty request: %v", err)
	}
	if req.Dataset != "hep" || req.Scale != cfg.scale || req.Seed != cfg.seed {
		t.Fatalf("instance defaults = %s/%v/%d", req.Dataset, req.Scale, req.Seed)
	}
	if req.RumorFraction != 0.05 || req.Alpha != 0.9 || req.MaxHops != 31 || req.Samples != 10 {
		t.Fatalf("solve defaults = %+v", req.solveRequest)
	}
	if req.Algorithm != "auto" || req.timeout != cfg.defaultTimeout {
		t.Fatalf("dispatch defaults = %s/%v", req.Algorithm, req.timeout)
	}
	if req.Tenant != "" {
		t.Fatalf("tenant default = %q, want empty (resolved at admission)", req.Tenant)
	}
}

// TestParseTenantsGrammar covers the -tenants flag syntax.
func TestParseTenantsGrammar(t *testing.T) {
	got, err := parseTenants("gold:3, bronze:1")
	if err != nil {
		t.Fatalf("parseTenants: %v", err)
	}
	if got["gold"] != 3 || got["bronze"] != 1 || len(got) != 2 {
		t.Fatalf("parseTenants = %v", got)
	}
	if empty, err := parseTenants(""); err != nil || empty != nil {
		t.Fatalf("empty spec = %v, %v", empty, err)
	}
	for _, bad := range []string{"gold", "gold:0", "gold:-1", "gold:x", ":3", "gold:1,gold:2"} {
		if _, err := parseTenants(bad); err == nil {
			t.Fatalf("parseTenants(%q) accepted", bad)
		}
	}
}

// TestRequestFingerprint pins the coalescing key: solve-shaping fields
// change it, the tenant does not.
func TestRequestFingerprint(t *testing.T) {
	decode := func(body string) *resolvedRequest {
		t.Helper()
		req, err := decodeSolveRequest(strings.NewReader(body), testConfig())
		if err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		return req
	}
	base := decode(`{"algorithm":"greedy","seed":4}`)
	if fp := decode(`{"algorithm":"greedy","seed":4}`).fingerprint(); fp != base.fingerprint() {
		t.Fatalf("equal requests fingerprint differently:\n%s\n%s", fp, base.fingerprint())
	}
	if fp := decode(`{"algorithm":"greedy","seed":4,"tenant":"gold"}`).fingerprint(); fp != base.fingerprint() {
		t.Fatal("tenant changed the fingerprint; tenancy must not affect the answer")
	}
	for _, variant := range []string{
		`{"algorithm":"greedy","seed":5}`,
		`{"algorithm":"scbg","seed":4}`,
		`{"algorithm":"greedy","seed":4,"samples":11}`,
		`{"algorithm":"greedy","seed":4,"alpha":0.8}`,
		`{"algorithm":"greedy","seed":4,"timeoutMillis":1234}`,
	} {
		if decode(variant).fingerprint() == base.fingerprint() {
			t.Fatalf("variant %s shares the base fingerprint", variant)
		}
	}
}

// FuzzDecodeSolveRequest feeds arbitrary bodies to the request decoder.
// It must never panic, and whatever it accepts must lie inside the
// documented ranges, so no solver downstream sees an out-of-range field.
// The seed corpus lives in testdata/fuzz/FuzzDecodeSolveRequest.
func FuzzDecodeSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"dataset":"enron","scale":1,"seed":3,"communitySize":60,"rumorFraction":0.2}`,
		`{"algorithm":"scbg","alpha":1}`,
		`{"algorithm":"greedy","alpha":0.5,"samples":20,"maxHops":5,"timeoutMillis":250,"tenant":"gold"}`,
	} {
		f.Add([]byte(seed))
	}
	cfg := testConfig()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSolveRequest(bytes.NewReader(body), cfg)
		if err != nil {
			return
		}
		if req.Dataset != "hep" && req.Dataset != "enron" {
			t.Fatalf("accepted dataset %q", req.Dataset)
		}
		if !(req.Scale > 0 && req.Scale <= 1) {
			t.Fatalf("accepted scale %v", req.Scale)
		}
		if !(req.RumorFraction > 0 && req.RumorFraction <= 1) {
			t.Fatalf("accepted rumorFraction %v", req.RumorFraction)
		}
		if req.CommunitySize < 0 {
			t.Fatalf("accepted communitySize %d", req.CommunitySize)
		}
		switch req.Algorithm {
		case "scbg", "proximity", "maxdegree":
			if !(req.Alpha > 0 && req.Alpha <= 1) {
				t.Fatalf("accepted alpha %v for %s", req.Alpha, req.Algorithm)
			}
		case "auto", "greedy", "ris":
			if !(req.Alpha > 0 && req.Alpha < 1) {
				t.Fatalf("accepted alpha %v for %s", req.Alpha, req.Algorithm)
			}
		default:
			t.Fatalf("accepted algorithm %q", req.Algorithm)
		}
		if req.Samples <= 0 || req.Samples > maxSamples || req.MaxHops <= 0 {
			t.Fatalf("accepted samples %d, maxHops %d", req.Samples, req.MaxHops)
		}
		if req.timeout <= 0 {
			t.Fatalf("accepted timeoutMillis %d as timeout %v", req.TimeoutMillis, req.timeout)
		}
	})
}
