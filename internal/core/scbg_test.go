package core

import (
	"context"
	"errors"
	"testing"

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
func TestSCBGOnGeneratedNetworks(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 800, AvgDegree: 8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: 1})
	comm := part.ClosestBySize(80)
	members := part.Members(comm)
	src := rng.New(17)
	k := int32(3)
	if int(k) > len(members) {
		k = int32(len(members))
	}
	var rumors []int32
	for _, i := range src.SampleInt32(int32(len(members)), k) {
		rumors = append(rumors, members[i])
	}

	p, err := NewProblem(net.Graph, part.Assign(), comm, rumors)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEnds() == 0 {
		t.Skip("no bridge ends for this draw")
	}
	res, err := SCBG(p, SCBGOptions{})
	if err != nil {
		t.Fatalf("SCBG: %v (uncoverable=%d)", err, res.UncoverableEnds)
	}
	if res.CoveredEnds != p.NumEnds() {
		t.Fatalf("CoveredEnds = %d, want %d", res.CoveredEnds, p.NumEnds())
	}
	// SCBG should use far fewer protectors than there are ends whenever
	// the community has internal hubs; at minimum it must not exceed |B|.
	if len(res.Protectors) > p.NumEnds() {
		t.Fatalf("selected %d protectors for %d ends", len(res.Protectors), p.NumEnds())
	}

	sim, err := diffusion.DOAM{}.RunContext(context.Background(), net.Graph, rumors, res.Protectors, nil, diffusion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	infectedEnds := 0
	for _, e := range p.Ends {
		if sim.Status[e] == diffusion.Infected {
			infectedEnds++
		}
	}
	// The set-cover argument ignores cascade blocking along shared paths,
	// so a small number of ends can slip through; the bulk must hold.
	if frac := float64(infectedEnds) / float64(p.NumEnds()); frac > 0.25 {
		t.Fatalf("%d/%d bridge ends infected under DOAM (%.0f%%)",
			infectedEnds, p.NumEnds(), frac*100)
	}
}
