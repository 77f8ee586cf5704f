package gen

import (
	"math"
	"testing"

	"lcrb/internal/graph"
)

func TestErdosRenyiBasic(t *testing.T) {
	g, err := ErdosRenyi(100, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	// Some loss to dedup/self-loops is expected but should be small.
	if g.NumEdges() < 400 || g.NumEdges() > 500 {
		t.Fatalf("NumEdges = %d, want roughly 500", g.NumEdges())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a, err := ErdosRenyi(50, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ErdosRenyi(50, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestErdosRenyiErrors(t *testing.T) {
	if _, err := ErdosRenyi(0, 10, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ErdosRenyi(10, -1, 1); err == nil {
		t.Fatal("m=-1 accepted")
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0 keeps the pure ring lattice: every node has degree 2k in
	// each direction.
	g, err := WattsStrogatz(20, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < g.NumNodes(); u++ {
		if g.OutDegree(u) != 4 {
			t.Fatalf("node %d out-degree = %d, want 4", u, g.OutDegree(u))
		}
	}
}

func TestWattsStrogatzSymmetric(t *testing.T) {
	g, err := WattsStrogatz(50, 3, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if !g.HasEdge(e.V, e.U) {
			t.Fatalf("edge (%d,%d) has no reciprocal", e.U, e.V)
		}
	}
}

func TestWattsStrogatzErrors(t *testing.T) {
	tests := []struct {
		n, k int32
		beta float64
	}{
		{0, 1, 0.1},
		{10, 0, 0.1},
		{10, 5, 0.1}, // 2k >= n
		{10, 2, -0.1},
		{10, 2, 1.5},
	}
	for _, tt := range tests {
		if _, err := WattsStrogatz(tt.n, tt.k, tt.beta, 1); err == nil {
			t.Fatalf("WattsStrogatz(%d,%d,%v) accepted", tt.n, tt.k, tt.beta)
		}
	}
}

func TestCommunityBasic(t *testing.T) {
	net, err := Community(CommunityConfig{Nodes: 1000, AvgDegree: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	if g.NumNodes() != 1000 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if math.Abs(g.AvgDegree()-8) > 1.5 {
		t.Fatalf("AvgDegree = %.2f, want ~8", g.AvgDegree())
	}
	if net.NumCommunities < 2 {
		t.Fatalf("NumCommunities = %d, want >= 2", net.NumCommunities)
	}
	if len(net.Communities) != 1000 {
		t.Fatalf("assignment length = %d", len(net.Communities))
	}
	for u, c := range net.Communities {
		if c < 0 || c >= net.NumCommunities {
			t.Fatalf("node %d assigned invalid community %d", u, c)
		}
	}
}

func TestCommunityIntraFraction(t *testing.T) {
	net, err := Community(CommunityConfig{Nodes: 2000, AvgDegree: 8, IntraFraction: 0.9, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	intra := 0
	for _, e := range net.Graph.Edges() {
		if net.Communities[e.U] == net.Communities[e.V] {
			intra++
		}
	}
	frac := float64(intra) / float64(net.Graph.NumEdges())
	// Dedup removes more intra edges (denser), so allow slack below 0.9.
	if frac < 0.8 {
		t.Fatalf("intra-community edge fraction = %.3f, want >= 0.8", frac)
	}
}

func TestCommunitySparseAcross(t *testing.T) {
	// The defining structural property for the paper: within-community
	// density far exceeds cross-community density.
	net, err := Community(CommunityConfig{Nodes: 2000, AvgDegree: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[int32]int64)
	for _, c := range net.Communities {
		sizes[c]++
	}
	var intraPairs, crossPairs, intraEdges, crossEdges int64
	n := int64(net.Graph.NumNodes())
	for _, s := range sizes {
		intraPairs += s * (s - 1)
	}
	crossPairs = n*(n-1) - intraPairs
	for _, e := range net.Graph.Edges() {
		if net.Communities[e.U] == net.Communities[e.V] {
			intraEdges++
		} else {
			crossEdges++
		}
	}
	intraDensity := float64(intraEdges) / float64(intraPairs)
	crossDensity := float64(crossEdges) / float64(crossPairs)
	if intraDensity < 10*crossDensity {
		t.Fatalf("intra density %.2e not >> cross density %.2e", intraDensity, crossDensity)
	}
}

func TestCommunityDeterministic(t *testing.T) {
	a, err := Community(CommunityConfig{Nodes: 500, AvgDegree: 6, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Community(CommunityConfig{Nodes: 500, AvgDegree: 6, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() || a.NumCommunities != b.NumCommunities {
		t.Fatal("same config produced different networks")
	}
}

func TestCommunitySymmetric(t *testing.T) {
	net, err := Community(CommunityConfig{Nodes: 500, AvgDegree: 8, Symmetric: true, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range net.Graph.Edges() {
		if !net.Graph.HasEdge(e.V, e.U) {
			t.Fatalf("edge (%d,%d) has no reciprocal", e.U, e.V)
		}
	}
}

func TestCommunityConfigErrors(t *testing.T) {
	tests := []struct {
		name string
		cfg  CommunityConfig
	}{
		{"no nodes", CommunityConfig{AvgDegree: 5}},
		{"no degree", CommunityConfig{Nodes: 100}},
		{"bad intra", CommunityConfig{Nodes: 100, AvgDegree: 5, IntraFraction: 1.5}},
		{"bad exponent", CommunityConfig{Nodes: 100, AvgDegree: 5, SizeExponent: 0.5}},
		{"bad min size", CommunityConfig{Nodes: 100, AvgDegree: 5, MinCommunitySize: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Community(tt.cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestCommunityMinSizeRespected(t *testing.T) {
	net, err := Community(CommunityConfig{
		Nodes: 1000, AvgDegree: 6, MinCommunitySize: 50, Seed: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[int32]int32)
	for _, c := range net.Communities {
		sizes[c]++
	}
	for c, s := range sizes {
		if s < 50 {
			t.Fatalf("community %d has size %d < 50", c, s)
		}
	}
}

func TestEnronProfileDensity(t *testing.T) {
	net, err := Enron(0.05, 40)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(net.Graph.AvgDegree()-EnronAvgDegree) > 2.0 {
		t.Fatalf("Enron avg degree = %.2f, want ~%.1f", net.Graph.AvgDegree(), EnronAvgDegree)
	}
}

func TestHepProfileDensityAndSymmetry(t *testing.T) {
	net, err := Hep(0.05, 41)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(net.Graph.AvgDegree()-HepAvgDegree) > 2.0 {
		t.Fatalf("Hep avg degree = %.2f, want ~%.2f", net.Graph.AvgDegree(), HepAvgDegree)
	}
	for _, e := range net.Graph.Edges() {
		if !net.Graph.HasEdge(e.V, e.U) {
			t.Fatalf("Hep edge (%d,%d) not reciprocal", e.U, e.V)
		}
	}
}

func TestProfileScaleErrors(t *testing.T) {
	if _, err := EnronProfile(0, 1); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := HepProfile(1.5, 1); err == nil {
		t.Fatal("scale 1.5 accepted")
	}
}

func TestProfileFullSizeCounts(t *testing.T) {
	ecfg, err := EnronProfile(1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ecfg.Nodes != EnronNodes {
		t.Fatalf("Enron nodes = %d, want %d", ecfg.Nodes, EnronNodes)
	}
	hcfg, err := HepProfile(1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hcfg.Nodes != HepNodes {
		t.Fatalf("Hep nodes = %d, want %d", hcfg.Nodes, HepNodes)
	}
}

func TestCommunityHeavyTailDegrees(t *testing.T) {
	net, err := Community(CommunityConfig{Nodes: 3000, AvgDegree: 10, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	stats := net.Graph.TotalDegreeStats()
	if float64(stats.Max) < 4*stats.Mean {
		t.Fatalf("degree max %d vs mean %.2f: tail too light", stats.Max, stats.Mean)
	}
}

func TestCommunityNoSelfLoops(t *testing.T) {
	net, err := Community(CommunityConfig{Nodes: 500, AvgDegree: 8, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range net.Graph.Edges() {
		if e.U == e.V {
			t.Fatalf("self loop at node %d", e.U)
		}
	}
}

func TestCommunityAssignmentContiguousCoverage(t *testing.T) {
	net, err := Community(CommunityConfig{Nodes: 777, AvgDegree: 5, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, net.NumCommunities)
	for _, c := range net.Communities {
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("community %d has no members", c)
		}
	}
}

// TestCommunityGraphIsUsable checks the generated graph plugs into the graph
// package's algorithms without surprises.
func TestCommunityGraphIsUsable(t *testing.T) {
	net, err := Community(CommunityConfig{Nodes: 400, AvgDegree: 8, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	dist := graph.Distances(net.Graph, []int32{0}, graph.Forward)
	reached := 0
	for _, d := range dist {
		if d != graph.Unreachable {
			reached++
		}
	}
	if reached < 2 {
		t.Fatalf("node 0 reaches only %d nodes; generated graph too disconnected", reached)
	}
}
