package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"lcrb/internal/bridge"
	"lcrb/internal/community"
	"lcrb/internal/diffusion"
	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
	"lcrb/internal/setcover"
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
			t.Fatalf("seed %d: SCBG: %v", seed, err)
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

// setCoverSCBG is the test oracle for SCBGContext: the paper's SCBG on
// setcover's engine, as the library ran it before the cover moved to
// rrset. The BBSTs are inverted into coverage sets SW_u over candidates in
// ascending id order, and setcover's lazy unit-cost greedy picks the set
// with the most uncovered ends, ties to the smaller set index.
func setCoverSCBG(t testing.TB, p *Problem, alpha float64) *SCBGResult {
	t.Helper()
	trees, err := bridge.Build(p.Graph, p.Rumors, p.Ends)
	if err != nil {
		t.Fatal(err)
	}
	cov := trees.Invert()
	sol, err := setcover.GreedyPartial(setcover.Instance{Universe: len(p.Ends), Sets: cov.Covers}, p.RequiredEnds(alpha))
	if err != nil {
		t.Fatal(err)
	}
	res := &SCBGResult{CoveredEnds: sol.Covered, Candidates: len(cov.Candidates)}
	for _, si := range sol.Chosen {
		res.Protectors = append(res.Protectors, cov.Candidates[si])
	}
	return res
}

// checkSCBGMatchesSetCover runs SCBG and its set-cover oracle at alpha and
// requires the same protectors in the same order, covered ends and
// candidate count.
func checkSCBGMatchesSetCover(t *testing.T, p *Problem, alpha float64) *SCBGResult {
	t.Helper()
	got, err := SCBG(p, SCBGOptions{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	want := setCoverSCBG(t, p, alpha)
	if !slices.Equal(got.Protectors, want.Protectors) {
		t.Fatalf("alpha %v: protectors\n got %v\nwant %v", alpha, got.Protectors, want.Protectors)
	}
	if got.CoveredEnds != want.CoveredEnds || got.Candidates != want.Candidates {
		t.Fatalf("alpha %v: covered %d of %d candidates, oracle %d of %d",
			alpha, got.CoveredEnds, got.Candidates, want.CoveredEnds, want.Candidates)
	}
	return got
}

// rumorFractionProblem builds a planted-community instance with one in
// div members of the community closest to commSize as rumor seeds. Many
// seeds keep the BBSTs shallow, so the coverage sets are sparse and the
// cover takes many rounds, as at the paper's scale.
func rumorFractionProblem(t *testing.T, nodes, commSize int32, div int, seed uint64) *Problem {
	t.Helper()
	net, err := gen.Community(gen.CommunityConfig{Nodes: nodes, AvgDegree: 6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	planted, err := community.FromAssignment(net.Communities)
	if err != nil {
		t.Fatal(err)
	}
	comm := planted.ClosestBySize(commSize)
	members := planted.Members(comm)
	var rumors []int32
	for _, i := range rng.New(seed).SampleInt32(int32(len(members)), int32(len(members)/div)) {
		rumors = append(rumors, members[i])
	}
	p, err := NewProblem(net.Graph, planted.Assign(), comm, rumors)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSCBGMatchesSetCoverOracle holds SCBG's rrset cover to the set-cover
// greedy it replaced at three protection levels: both are the exact
// unit-cost greedy under lazy evaluation, with the same tie rule. The
// two-seed instances have deep trees whose index keeps a bitset arena; the
// rumor-fraction ones are sparse and count gains by decrement.
func TestSCBGMatchesSetCoverOracle(t *testing.T) {
	problems := []struct {
		name string
		p    *Problem
	}{
		{"two-seed/n300-seed41", identityProblem(t, 300, 40, 41)},
		{"two-seed/n600-seed17", identityProblem(t, 600, 60, 17)},
		{"fraction/n600-seed41", rumorFractionProblem(t, 600, 80, 5, 41)},
		{"fraction/n800-seed17", rumorFractionProblem(t, 800, 100, 4, 17)},
		{"fraction/n1000-seed5", rumorFractionProblem(t, 1000, 150, 5, 5)},
	}
	for _, inst := range problems {
		for _, alpha := range []float64{0.5, 0.9, 1} {
			t.Run(fmt.Sprintf("%s/alpha=%v", inst.name, alpha), func(t *testing.T) {
				checkSCBGMatchesSetCover(t, inst.p, alpha)
			})
		}
	}
}

// TestSCBGMatchesSetCoverTieHeavy runs the identity on an instance whose
// largest coverage set is shared by several candidates, so the first
// selection is a tie that both engines must break to the smaller node id.
func TestSCBGMatchesSetCoverTieHeavy(t *testing.T) {
	p := rumorFractionProblem(t, 1500, 200, 3, 7)
	res := checkSCBGMatchesSetCover(t, p, 1)
	if len(res.Protectors) < 2 {
		t.Fatalf("only %d selections", len(res.Protectors))
	}
	trees, err := bridge.Build(p.Graph, p.Rumors, p.Ends)
	if err != nil {
		t.Fatal(err)
	}
	best, tied := 0, 0
	for _, set := range trees.Invert().Covers {
		switch {
		case len(set) > best:
			best, tied = len(set), 1
		case len(set) == best:
			tied++
		}
	}
	if tied < 2 {
		t.Fatalf("the first selection's gain %d is held by %d candidate: no tie to break", best, tied)
	}
}
