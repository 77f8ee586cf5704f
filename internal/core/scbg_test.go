package core

import (
	"context"
	"errors"
	"testing"

	"lcrb/internal/bridge"
	"lcrb/internal/community"
	"lcrb/internal/diffusion"
	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

func TestSCBGFixtureProtectsAllEnds(t *testing.T) {
	p := fixtureProblem(t)
	res, err := SCBG(p, SCBGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredEnds != 2 {
		t.Fatalf("CoveredEnds = %d, want 2", res.CoveredEnds)
	}
	if len(res.Protectors) == 0 || len(res.Protectors) > 2 {
		t.Fatalf("Protectors = %v, want 1-2 nodes", res.Protectors)
	}
	// Semantic check: under DOAM with the selected seeds, no bridge end is
	// infected.
	sim, err := diffusion.DOAM{}.RunContext(context.Background(), p.Graph, p.Rumors, res.Protectors, nil, diffusion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Ends {
		if sim.Status[e] == diffusion.Infected {
			t.Fatalf("bridge end %d infected despite SCBG protection", e)
		}
	}
}

func TestSCBGSingleProtectorSuffices(t *testing.T) {
	// Both bridge ends share the candidate 5? No: build a case where one
	// node covers both ends. Rumor 0 -> 1 and 0 -> 2 (ends 1, 2 in other
	// community); node 3 -> 1 and 3 -> 2 can protect both.
	g := mustGraph(t, 4, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 3, V: 1}, {U: 3, V: 2},
	})
	p, err := NewProblem(g, []int32{0, 1, 1, 1}, 0, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SCBG(p, SCBGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Protectors) != 1 {
		t.Fatalf("Protectors = %v, want a single node (3 covers both ends)", res.Protectors)
	}
	if res.Protectors[0] != 3 {
		// Node 3 covers both ends; an end can only cover itself.
		t.Fatalf("Protectors = %v, want [3]", res.Protectors)
	}
}

func TestSCBGNoBridgeEnds(t *testing.T) {
	// Rumor community with no outgoing edges.
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}})
	p, err := NewProblem(g, []int32{0, 0, 1}, 0, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SCBG(p, SCBGOptions{}); !errors.Is(err, ErrNoBridgeEnds) {
		t.Fatalf("err = %v, want ErrNoBridgeEnds", err)
	}
}

func TestSCBGAlphaValidation(t *testing.T) {
	p := fixtureProblem(t)
	if _, err := SCBG(p, SCBGOptions{Alpha: -0.5}); err == nil {
		t.Fatal("alpha < 0 accepted")
	}
	if _, err := SCBG(p, SCBGOptions{Alpha: 1.5}); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	if _, err := SCBG(nil, SCBGOptions{}); err == nil {
		t.Fatal("nil problem accepted")
	}
}

func TestSCBGPartialAlpha(t *testing.T) {
	p := fixtureProblem(t)
	res, err := SCBG(p, SCBGOptions{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredEnds < 1 {
		t.Fatalf("CoveredEnds = %d, want >= 1", res.CoveredEnds)
	}
}

// TestSCBGOnGeneratedNetworks runs the full pipeline end to end on a
// community network: generate, detect communities, pick rumors, solve, and
// verify under DOAM that the selection protects nearly all bridge ends.
// TestSCBGOnGeneratedNetworks checks that SCBG is sound under DOAM: with
// every end covered, no bridge end is infected. Let u be in end v's BBST,
// with a path u = w_0, ..., w_d = v and d <= dist_R(v). Then
// dist_R(w_i) >= i, and since P wins ties and blocking only delays R, P
// holds every w_i by step i. The same argument makes each candidate alone
// save every end of its coverage set, which the test also checks.
func TestSCBGOnGeneratedNetworks(t *testing.T) {
	draws := 0
	for seed := uint64(31); seed < 37; seed++ {
		net, err := gen.Community(gen.CommunityConfig{Nodes: 800, AvgDegree: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		part := community.Louvain(net.Graph, community.LouvainOptions{Seed: 1})
		comm := part.ClosestBySize(80)
		members := part.Members(comm)
		src := rng.New(seed + 100)
		k := min(int32(3), int32(len(members)))
		var rumors []int32
		for _, i := range src.SampleInt32(int32(len(members)), k) {
			rumors = append(rumors, members[i])
		}

		p, err := NewProblem(net.Graph, part.Assign(), comm, rumors)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumEnds() == 0 {
			continue
		}
		draws++
		res, err := SCBG(p, SCBGOptions{})
		if err != nil {
			t.Fatalf("seed %d: SCBG: %v (uncoverable=%d)", seed, err, res.UncoverableEnds)
		}
		if res.CoveredEnds != p.NumEnds() {
			t.Fatalf("seed %d: CoveredEnds = %d, want %d", seed, res.CoveredEnds, p.NumEnds())
		}
		if len(res.Protectors) > p.NumEnds() {
			t.Fatalf("seed %d: selected %d protectors for %d ends", seed, len(res.Protectors), p.NumEnds())
		}
		if n := infectedEnds(t, p, res.Protectors, p.Ends); n != 0 {
			t.Fatalf("seed %d: %d/%d bridge ends infected under DOAM", seed, n, p.NumEnds())
		}

		trees, err := bridge.Build(p.Graph, p.Rumors, p.Ends)
		if err != nil {
			t.Fatal(err)
		}
		cov := trees.Invert()
		for i, u := range cov.Candidates {
			covered := make([]int32, len(cov.Covers[i]))
			for j, e := range cov.Covers[i] {
				covered[j] = p.Ends[e]
			}
			if n := infectedEnds(t, p, []int32{u}, covered); n != 0 {
				t.Fatalf("seed %d: candidate %d alone leaves %d of its %d covered ends infected",
					seed, u, n, len(covered))
			}
		}
	}
	if draws < 3 {
		t.Fatalf("only %d of 6 draws had bridge ends", draws)
	}
}

// infectedEnds simulates DOAM with the given protectors and counts the
// infected nodes among ends.
func infectedEnds(t *testing.T, p *Problem, protectors, ends []int32) int {
	t.Helper()
	sim, err := diffusion.DOAM{}.RunContext(context.Background(), p.Graph, p.Rumors, protectors, nil, diffusion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ends {
		if sim.Status[e] == diffusion.Infected {
			n++
		}
	}
	return n
}
