package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/gen"
	"lcrb/internal/rng"
	"lcrb/internal/sketch"
)

// update rewrites the bench-smoke fixture instead of comparing against it:
//
//	go test ./cmd/lcrbbench -run TestBenchSmokeFixture -update
var update = flag.Bool("update", false, "rewrite testdata/BENCH_smoke.json from the current solver")

// benchSmokePath is the committed fixture: the exact greedy-RIS selection
// on a pinned small instance.
const benchSmokePath = "testdata/BENCH_smoke.json"

// benchSmokeFixture is the fixture's schema.
type benchSmokeFixture struct {
	// Instance pins the inputs: the perfInstance construction at this
	// scale and seed, a fixed-Samples sketch build, and the solve alpha.
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	Seed    uint64  `json:"seed"`
	Samples int     `json:"samples"`
	Alpha   float64 `json:"alpha"`
	NumEnds int     `json:"num_ends"`
	// Outputs: the full selection, in order, with its integer-exact
	// coverage facts. Gains are in pair units (gain × samples), so the
	// fixture holds only integers and string-exact floats.
	Protectors    []int32 `json:"protectors"`
	PairGains     []int   `json:"pair_gains"`
	Evaluations   int     `json:"evaluations"`
	BaselinePairs int     `json:"baseline_pairs"`
	Achieved      bool    `json:"achieved"`
	Fingerprint   string  `json:"fingerprint"`
}

// perfInstance builds the benchmark's Hep LCRB instance at the given
// scale: community closest to 80 members, |C|/10 rumor seeds (min 2).
func perfInstance(scale float64, seed uint64) (*gen.Network, *core.Problem, []int32, int, error) {
	net, err := gen.Hep(scale, seed)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: seed})
	comm := part.ClosestBySize(80)
	members := part.Members(comm)
	src := rng.New(seed + 100)
	k := int32(len(members) / 10)
	if k < 2 {
		k = 2
	}
	var rumors []int32
	for _, i := range src.SampleInt32(int32(len(members)), k) {
		rumors = append(rumors, members[i])
	}
	prob, err := core.NewProblem(net.Graph, part.Assign(), comm, rumors)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return net, prob, rumors, len(members), nil
}

// TestBenchSmokeFixture is the selection-determinism gate: it re-solves
// the pinned instance — sketch build, then greedy-RIS max coverage — and
// fails if any field drifts from the committed fixture, so a sampler or
// coverage-kernel change cannot silently move answers.
func TestBenchSmokeFixture(t *testing.T) {
	const (
		scale   = 0.05
		seed    = 1
		samples = 64
		alpha   = 0.9
	)
	_, prob, _, _, err := perfInstance(scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	set, err := sketch.Build(prob, sketch.Options{Samples: samples, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sketch.SolveGreedyRIS(prob, set, sketch.SolveOptions{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	got := benchSmokeFixture{
		Dataset:       "hep",
		Scale:         scale,
		Seed:          seed,
		Samples:       set.Samples,
		Alpha:         alpha,
		NumEnds:       prob.NumEnds(),
		Protectors:    res.Protectors,
		PairGains:     make([]int, 0, len(res.Gains)),
		Evaluations:   res.Evaluations,
		BaselinePairs: set.BaselinePairs,
		Achieved:      res.Achieved,
		Fingerprint:   set.Fingerprint,
	}
	for _, g := range res.Gains {
		// Gains are integer pair counts divided by Samples; recover the
		// integer so the comparison never touches float formatting.
		got.PairGains = append(got.PairGains, int(g*float64(set.Samples)+0.5))
	}

	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchSmokePath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d protectors, %d evaluations)", benchSmokePath, len(got.Protectors), got.Evaluations)
		return
	}
	data, err := os.ReadFile(benchSmokePath)
	if err != nil {
		t.Fatalf("read fixture (rerun with -update to create it): %v", err)
	}
	var want benchSmokeFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode fixture %s: %v", benchSmokePath, err)
	}
	if !reflect.DeepEqual(got, want) {
		gotBuf, _ := json.Marshal(got)
		wantBuf, _ := json.Marshal(want)
		t.Fatalf("RIS selection drifted from %s\n got: %s\nwant: %s\n(if the change is intentional, regenerate with -update)",
			benchSmokePath, gotBuf, wantBuf)
	}
}
