package community

import (
	"testing"

	"lcrb/internal/gen"
	"lcrb/internal/graph"
)

// twoCliques builds two k-cliques joined by a single bridge edge; the
// canonical easy case for any community detector.
func twoCliques(t *testing.T, k int32) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(2 * k)
	clique := func(offset int32) {
		for i := int32(0); i < k; i++ {
			for j := int32(0); j < k; j++ {
				if i != j {
					b.AddEdge(offset+i, offset+j)
				}
			}
		}
	}
	clique(0)
	clique(k)
	b.AddEdge(0, k)
	b.AddEdge(k, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLouvainTwoCliques(t *testing.T) {
	g := twoCliques(t, 6)
	p := Louvain(g, LouvainOptions{Seed: 1})
	if err := p.Validate(g.NumNodes()); err != nil {
		t.Fatal(err)
	}
	if p.Count() != 2 {
		t.Fatalf("Count = %d, want 2", p.Count())
	}
	for u := int32(1); u < 6; u++ {
		if !p.InSame(0, u) {
			t.Fatalf("nodes 0 and %d split across communities", u)
		}
		if !p.InSame(6, 6+u) {
			t.Fatalf("nodes 6 and %d split across communities", 6+u)
		}
	}
	if p.InSame(0, 6) {
		t.Fatal("the two cliques were merged")
	}
}

func TestLouvainModularityBeatsSingletons(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 600, AvgDegree: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := Louvain(net.Graph, LouvainOptions{Seed: 2})
	qDetected := Modularity(net.Graph, p)
	qSingle := Modularity(net.Graph, Singletons(net.Graph.NumNodes()))
	if qDetected <= qSingle {
		t.Fatalf("Louvain modularity %.4f not above singleton %.4f", qDetected, qSingle)
	}
	if qDetected < 0.3 {
		t.Fatalf("Louvain modularity %.4f too low for a strongly modular network", qDetected)
	}
}

func TestLouvainRecoversPlantedCommunities(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{
		Nodes: 800, AvgDegree: 10, IntraFraction: 0.95, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	planted, err := FromAssignment(net.Communities)
	if err != nil {
		t.Fatal(err)
	}
	p := Louvain(net.Graph, LouvainOptions{Seed: 3})
	if nmi := NMI(planted, p); nmi < 0.6 {
		t.Fatalf("NMI(planted, louvain) = %.3f, want >= 0.6", nmi)
	}
}

func TestLouvainDeterministic(t *testing.T) {
	g := twoCliques(t, 5)
	a := Louvain(g, LouvainOptions{Seed: 9})
	b := Louvain(g, LouvainOptions{Seed: 9})
	aa, ba := a.Assign(), b.Assign()
	for i := range aa {
		if aa[i] != ba[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestLouvainEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := Louvain(g, LouvainOptions{})
	if p.Count() != 0 || p.NumNodes() != 0 {
		t.Fatalf("empty graph partition: count=%d nodes=%d", p.Count(), p.NumNodes())
	}
}

func TestLouvainNoEdges(t *testing.T) {
	g, err := graph.FromEdges(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := Louvain(g, LouvainOptions{})
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	if p.Count() != 5 {
		t.Fatalf("edgeless graph should stay singletons, got %d communities", p.Count())
	}
}

func TestLouvainMaxLevels(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 400, AvgDegree: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := Louvain(net.Graph, LouvainOptions{Seed: 4, MaxLevels: 1})
	if err := p.Validate(net.Graph.NumNodes()); err != nil {
		t.Fatal(err)
	}
	// One level of Louvain cannot merge less than the full run; it yields
	// at least as many communities.
	full := Louvain(net.Graph, LouvainOptions{Seed: 4})
	if p.Count() < full.Count() {
		t.Fatalf("1-level count %d < full count %d", p.Count(), full.Count())
	}
}

func TestLouvainResolution(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 500, AvgDegree: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	fine := Louvain(net.Graph, LouvainOptions{Seed: 5, Resolution: 4})
	coarse := Louvain(net.Graph, LouvainOptions{Seed: 5, Resolution: 0.25})
	if fine.Count() <= coarse.Count() {
		t.Fatalf("resolution 4 gave %d communities, resolution 0.25 gave %d; want fine > coarse",
			fine.Count(), coarse.Count())
	}
}

func TestModularityPerfectSplit(t *testing.T) {
	// Two disconnected cliques: the 2-community partition has high
	// modularity, approaching 0.5 for two equal groups.
	b := graph.NewBuilder(8)
	for i := int32(0); i < 4; i++ {
		for j := int32(0); j < 4; j++ {
			if i != j {
				b.AddEdge(i, j)
				b.AddEdge(4+i, 4+j)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromAssignment([]int32{0, 0, 0, 0, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if q := Modularity(g, p); q < 0.49 || q > 0.51 {
		t.Fatalf("Modularity = %.4f, want ~0.5", q)
	}
	// The all-in-one partition always has modularity 0.
	one, err := FromAssignment(make([]int32, 8))
	if err != nil {
		t.Fatal(err)
	}
	if q := Modularity(g, one); q > 1e-12 || q < -1e-12 {
		t.Fatalf("single-community modularity = %v, want 0", q)
	}
}

func TestModularityEmpty(t *testing.T) {
	g, err := graph.FromEdges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q := Modularity(g, Singletons(3)); q != 0 {
		t.Fatalf("modularity of edgeless graph = %v", q)
	}
}

func TestNMIIdentical(t *testing.T) {
	a, err := FromAssignment([]int32{0, 0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Same partition with renamed labels.
	b, err := FromAssignment([]int32{5, 5, 9, 9, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := NMI(a, b); got < 0.999 {
		t.Fatalf("NMI of identical partitions = %v, want 1", got)
	}
}

func TestNMIOrthogonal(t *testing.T) {
	// a splits {0,1|2,3}, b splits {0,2|1,3}: independent partitions.
	a, err := FromAssignment([]int32{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromAssignment([]int32{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := NMI(a, b); got > 1e-9 {
		t.Fatalf("NMI of orthogonal partitions = %v, want 0", got)
	}
}

func TestNMISingleCommunityBoth(t *testing.T) {
	a, err := FromAssignment([]int32{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := NMI(a, a); got != 1 {
		t.Fatalf("NMI(single, single) = %v, want 1", got)
	}
}

func TestNMIMismatchedSizes(t *testing.T) {
	a, err := FromAssignment([]int32{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromAssignment([]int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := NMI(a, b); got != 0 {
		t.Fatalf("NMI over mismatched node sets = %v, want 0", got)
	}
}

func TestLouvainLevelsHierarchy(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 600, AvgDegree: 8, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	levels := LouvainLevels(net.Graph, LouvainOptions{Seed: 3})
	if len(levels) == 0 {
		t.Fatal("no levels returned")
	}
	for li, p := range levels {
		if err := p.Validate(net.Graph.NumNodes()); err != nil {
			t.Fatalf("level %d: %v", li, err)
		}
	}
	// Community counts never increase across levels, and later levels only
	// merge earlier ones (nodes together at level i stay together at i+1).
	for li := 1; li < len(levels); li++ {
		prev, cur := levels[li-1], levels[li]
		if cur.Count() > prev.Count() {
			t.Fatalf("level %d has %d communities, level %d had %d",
				li, cur.Count(), li-1, prev.Count())
		}
		// Sample pairs instead of all O(n^2).
		for u := int32(0); u < net.Graph.NumNodes(); u += 7 {
			for v := u + 1; v < net.Graph.NumNodes(); v += 31 {
				if prev.InSame(u, v) && !cur.InSame(u, v) {
					t.Fatalf("level %d split nodes %d,%d that level %d had merged",
						li, u, v, li-1)
				}
			}
		}
	}
	// The last level matches Louvain itself.
	full := Louvain(net.Graph, LouvainOptions{Seed: 3})
	last := levels[len(levels)-1]
	fa, la := full.Assign(), last.Assign()
	for i := range fa {
		if fa[i] != la[i] {
			t.Fatal("last level differs from Louvain output")
		}
	}
}

func TestLouvainLevelsModularityImproves(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 500, AvgDegree: 8, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	levels := LouvainLevels(net.Graph, LouvainOptions{Seed: 4})
	if len(levels) < 2 {
		t.Skip("single level; nothing to compare")
	}
	first := Modularity(net.Graph, levels[0])
	last := Modularity(net.Graph, levels[len(levels)-1])
	if last < first-1e-9 {
		t.Fatalf("modularity fell across levels: %.4f -> %.4f", first, last)
	}
}
