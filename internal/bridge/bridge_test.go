package bridge

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

func mustGraph(t *testing.T, n int32, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twoCommunityFixture builds a small two-community graph:
//
//	community 0: 0 -> 1 -> 2, 0 -> 2
//	community 1: 4 -> 5
//	crossing:    2 -> 4 (from inside C0 to C1), 5 -> 3? no — node 3 is in C0 but unreachable.
func twoCommunityFixture(t *testing.T) (*graph.Graph, []int32) {
	t.Helper()
	g := mustGraph(t, 6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, // inside community 0
		{U: 2, V: 4}, // bridge edge into community 1
		{U: 4, V: 5}, // inside community 1
	})
	assign := []int32{0, 0, 0, 0, 1, 1}
	return g, assign
}

func TestFindEndsBasic(t *testing.T) {
	g, assign := twoCommunityFixture(t)
	ends, err := FindEnds(g, assign, 0, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	// Node 4 is the only node outside C0 reached through C0; node 5 is
	// behind the bridge end and must NOT be expanded into.
	if !reflect.DeepEqual(ends, []int32{4}) {
		t.Fatalf("ends = %v, want [4]", ends)
	}
}

func TestFindEndsDoesNotCrossThroughEnds(t *testing.T) {
	// C0: 0 -> 1; crossing 1 -> 2 (C1), 2 -> 3 (C1 -> C2). Node 3 is only
	// reachable through foreign community node 2, so it is not a bridge end.
	g := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	assign := []int32{0, 0, 1, 2}
	ends, err := FindEnds(g, assign, 0, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ends, []int32{2}) {
		t.Fatalf("ends = %v, want [2]", ends)
	}
}

func TestFindEndsUnreachableOutsider(t *testing.T) {
	// An outside node with an in-edge from the community that the rumor
	// cannot reach is not a bridge end.
	g := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	assign := []int32{0, 0, 0, 1}
	// Rumor at 0 reaches only node 1; node 2's edge to 3 is irrelevant.
	ends, err := FindEnds(g, assign, 0, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) != 0 {
		t.Fatalf("ends = %v, want empty", ends)
	}
}

func TestFindEndsMultipleRumors(t *testing.T) {
	g := mustGraph(t, 6, []graph.Edge{
		{U: 0, V: 4}, {U: 1, V: 5},
	})
	assign := []int32{0, 0, 0, 0, 1, 2}
	ends, err := FindEnds(g, assign, 0, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ends, []int32{4, 5}) {
		t.Fatalf("ends = %v, want [4 5]", ends)
	}
}

func TestFindEndsValidation(t *testing.T) {
	g, assign := twoCommunityFixture(t)
	if _, err := FindEnds(g, assign[:3], 0, []int32{0}); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, err := FindEnds(g, assign, 0, nil); err == nil {
		t.Fatal("empty rumor set accepted")
	}
	if _, err := FindEnds(g, assign, 0, []int32{99}); err == nil {
		t.Fatal("out-of-range rumor accepted")
	}
	if _, err := FindEnds(g, assign, 0, []int32{4}); err == nil {
		t.Fatal("rumor outside its community accepted")
	}
}

func TestBuildBBSTDepthAndMembers(t *testing.T) {
	// Rumor 0; path 0 -> 1 -> 2 where 2 is the bridge end; plus a distant
	// helper 4 -> 3 -> 2 and a too-distant node 5 -> 4.
	// Backward BFS from 2 meets rumor 0 at depth 2, so Q_2 holds all
	// non-rumor nodes within distance 2 of node 2: {1, 2, 3, 4}.
	g := mustGraph(t, 6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2},
		{U: 4, V: 3}, {U: 3, V: 2},
		{U: 5, V: 4},
	})
	b, err := Build(g, []int32{0}, []int32{2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Depths[0] != 2 {
		t.Fatalf("depth = %d, want 2", b.Depths[0])
	}
	if !reflect.DeepEqual(b.Trees[0], []int32{1, 2, 3, 4}) {
		t.Fatalf("Q_2 = %v, want [1 2 3 4]", b.Trees[0])
	}
}

func TestBuildBBSTExcludesNodesBehindRumors(t *testing.T) {
	// 3 -> 0(R) -> 1, end = 1. The rumor is met at depth 1, and node 3
	// sits behind it: the protector cascade cannot pass through node 0,
	// so Q_1 = {1} only... node 3 is at depth 2 > limit anyway, and more
	// importantly is only reachable through the rumor.
	g := mustGraph(t, 4, []graph.Edge{{U: 3, V: 0}, {U: 0, V: 1}})
	b, err := Build(g, []int32{0}, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Depths[0] != 1 {
		t.Fatalf("depth = %d, want 1", b.Depths[0])
	}
	if !reflect.DeepEqual(b.Trees[0], []int32{1}) {
		t.Fatalf("Q_1 = %v, want [1]", b.Trees[0])
	}
}

func TestBuildBBSTNodesAtLimitIncludedButNotExpanded(t *testing.T) {
	// end = 3; rumor 0 at backward depth 1 (0 -> 3). Node 2 also at depth
	// 1 (2 -> 3) is included; node 1 (1 -> 2) at depth 2 is beyond the cap.
	g := mustGraph(t, 4, []graph.Edge{{U: 0, V: 3}, {U: 2, V: 3}, {U: 1, V: 2}})
	b, err := Build(g, []int32{0}, []int32{3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Trees[0], []int32{2, 3}) {
		t.Fatalf("Q_3 = %v, want [2 3]", b.Trees[0])
	}
}

func TestBuildBBSTIncludesEndItself(t *testing.T) {
	g := mustGraph(t, 2, []graph.Edge{{U: 0, V: 1}})
	b, err := Build(g, []int32{0}, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, u := range b.Trees[0] {
		if u == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("the bridge end must appear in its own tree (N^0(v) = v)")
	}
}

func TestBuildValidation(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}})
	if _, err := Build(g, []int32{9}, []int32{1}); err == nil {
		t.Fatal("out-of-range rumor accepted")
	}
	if _, err := Build(g, []int32{0}, []int32{9}); err == nil {
		t.Fatal("out-of-range end accepted")
	}
	if _, err := Build(g, []int32{0}, []int32{0}); err == nil {
		t.Fatal("rumor seed as bridge end accepted")
	}
}

func TestInvert(t *testing.T) {
	b := &BBSTs{
		Ends:  []int32{10, 20},
		Trees: [][]int32{{5, 7, 10}, {7, 20}},
	}
	cov := b.Invert()
	if !reflect.DeepEqual(cov.Candidates, []int32{5, 7, 10, 20}) {
		t.Fatalf("Candidates = %v", cov.Candidates)
	}
	wantCovers := map[int32][]int32{5: {0}, 7: {0, 1}, 10: {0}, 20: {1}}
	for i, u := range cov.Candidates {
		if !reflect.DeepEqual(cov.Covers[i], wantCovers[u]) {
			t.Fatalf("Covers[%d] (node %d) = %v, want %v", i, u, cov.Covers[i], wantCovers[u])
		}
	}
	if !reflect.DeepEqual(cov.Ends, b.Ends) {
		t.Fatalf("Ends = %v", cov.Ends)
	}
}

func TestInvertEmpty(t *testing.T) {
	cov := (&BBSTs{}).Invert()
	if len(cov.Candidates) != 0 || len(cov.Covers) != 0 {
		t.Fatal("empty BBSTs inverted into non-empty coverage")
	}
}

// TestPipelineOnGeneratedNetwork exercises the full stage-1 pipeline on a
// generated community network with Louvain-detected communities.
func TestPipelineOnGeneratedNetwork(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 600, AvgDegree: 8, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: 1})
	comm := part.ClosestBySize(60)
	members := part.Members(comm)
	src := rng.New(5)
	rumors := []int32{members[src.Intn(len(members))]}

	assign := part.Assign()
	ends, err := FindEnds(net.Graph, assign, comm, rumors)
	if err != nil {
		t.Fatal(err)
	}
	// Structural checks: every end is outside the community, reachable,
	// and has an in-neighbour inside the community.
	for _, e := range ends {
		if assign[e] == comm {
			t.Fatalf("bridge end %d inside the rumor community", e)
		}
		hasInside := false
		for _, w := range net.Graph.In(e) {
			if assign[w] == comm {
				hasInside = true
				break
			}
		}
		if !hasInside {
			t.Fatalf("bridge end %d has no in-neighbour inside the rumor community", e)
		}
	}
	if len(ends) == 0 {
		t.Skip("no bridge ends for this draw; structural checks vacuous")
	}

	bb, err := Build(net.Graph, rumors, ends)
	if err != nil {
		t.Fatal(err)
	}
	for i, tree := range bb.Trees {
		if len(tree) == 0 {
			t.Fatalf("end %d has an empty BBST", bb.Ends[i])
		}
		// Every tree node must be able to reach the end within the depth.
		dist := graph.Distances(net.Graph, []int32{bb.Ends[i]}, graph.Backward)
		for _, u := range tree {
			if dist[u] == graph.Unreachable || (bb.Depths[i] >= 0 && dist[u] > bb.Depths[i]) {
				t.Fatalf("tree node %d cannot protect end %d within depth %d",
					u, bb.Ends[i], bb.Depths[i])
			}
		}
	}
	cov := bb.Invert()
	// Every end must be coverable (at least by itself).
	covered := make(map[int32]bool)
	for _, idxs := range cov.Covers {
		for _, i := range idxs {
			covered[i] = true
		}
	}
	for i := range bb.Ends {
		if !covered[int32(i)] {
			t.Fatalf("end index %d uncovered in inversion", i)
		}
	}
}

// referenceTree is the map-based backward BFS that Build's dense search
// replaced, kept as the differential reference.
func referenceTree(g *graph.Graph, isRumor map[int32]bool, v int32) ([]int32, int32) {
	dist := map[int32]int32{v: 0}
	queue := []int32{v}
	limit := int32(-1)
	var tree []int32
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := dist[u]
		if limit >= 0 && d > limit {
			break
		}
		if isRumor[u] {
			if limit < 0 {
				limit = d
			}
			continue
		}
		tree = append(tree, u)
		if limit >= 0 && d == limit {
			continue
		}
		for _, w := range g.In(u) {
			if _, seen := dist[w]; !seen {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
	}
	sort.Slice(tree, func(i, j int) bool { return tree[i] < tree[j] })
	return tree, limit
}

// referenceInvert is the map inversion that Invert's counting sort replaced.
func referenceInvert(trees [][]int32) ([]int32, [][]int32) {
	byNode := make(map[int32][]int32)
	for i, tree := range trees {
		for _, u := range tree {
			byNode[u] = append(byNode[u], int32(i))
		}
	}
	candidates := make([]int32, 0, len(byNode))
	for u := range byNode {
		candidates = append(candidates, u)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	covers := make([][]int32, len(candidates))
	for i, u := range candidates {
		covers[i] = byNode[u]
	}
	return candidates, covers
}

// TestBuildAndInvertMatchReference runs Build and Invert against the map
// references on generated community networks, several rumor draws each:
// bridge ends found from the draw, and arbitrary non-rumor end lists
// (duplicates included) whose searches may never meet a rumor seed.
func TestBuildAndInvertMatchReference(t *testing.T) {
	for _, cfg := range []gen.CommunityConfig{
		{Nodes: 700, AvgDegree: 6, Seed: 3},
		{Nodes: 500, AvgDegree: 3, Seed: 4},
		{Nodes: 400, AvgDegree: 4, Seed: 5, Symmetric: true},
	} {
		net, err := gen.Community(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph
		part := community.Louvain(g, community.LouvainOptions{Seed: 1})
		src := rng.New(cfg.Seed)
		for draw := 0; draw < 8; draw++ {
			comm := part.Assign()[src.Intn(int(g.NumNodes()))]
			members := part.Members(comm)
			rumors := make([]int32, 1+src.Intn(4))
			isRumor := make(map[int32]bool)
			for i := range rumors {
				rumors[i] = members[src.Intn(len(members))]
				isRumor[rumors[i]] = true
			}
			ends, err := FindEnds(g, part.Assign(), comm, rumors)
			if err != nil {
				t.Fatal(err)
			}
			if draw%2 == 1 {
				ends = ends[:0]
				for len(ends) < 40 {
					if v := src.Int32n(g.NumNodes()); !isRumor[v] {
						ends = append(ends, v)
					}
				}
				ends = append(ends, ends[0])
			}
			bb, err := Build(g, rumors, ends)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range ends {
				tree, depth := referenceTree(g, isRumor, v)
				if !reflect.DeepEqual(bb.Trees[i], tree) || bb.Depths[i] != depth {
					t.Fatalf("seed %d draw %d end %d: tree %v depth %d, reference %v depth %d",
						cfg.Seed, draw, v, bb.Trees[i], bb.Depths[i], tree, depth)
				}
			}
			cov := bb.Invert()
			candidates, covers := referenceInvert(bb.Trees)
			if !reflect.DeepEqual(cov.Candidates, candidates) || !reflect.DeepEqual(cov.Covers, covers) {
				t.Fatalf("seed %d draw %d: inversion differs from the map reference", cfg.Seed, draw)
			}
		}
	}
}

// TestBuildBitIdenticalAcrossProcs builds the BBSTs of generated
// instances on one worker and on four: every tree lands in its end's slot
// whatever the worker count, so trees and depths are identical. The end
// lists include duplicates and ends no rumor seed reaches.
func TestBuildBitIdenticalAcrossProcs(t *testing.T) {
	for _, cfg := range []gen.CommunityConfig{
		{Nodes: 700, AvgDegree: 6, Seed: 3},
		{Nodes: 500, AvgDegree: 3, Seed: 4},
	} {
		net, err := gen.Community(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph
		part := community.Louvain(g, community.LouvainOptions{Seed: 1})
		src := rng.New(cfg.Seed)
		for draw := 0; draw < 4; draw++ {
			comm := part.Assign()[src.Intn(int(g.NumNodes()))]
			members := part.Members(comm)
			rumors := make([]int32, 1+src.Intn(4))
			isRumor := make(map[int32]bool)
			for i := range rumors {
				rumors[i] = members[src.Intn(len(members))]
				isRumor[rumors[i]] = true
			}
			ends, err := FindEnds(g, part.Assign(), comm, rumors)
			if err != nil {
				t.Fatal(err)
			}
			for len(ends) < 60 {
				if v := src.Int32n(g.NumNodes()); !isRumor[v] {
					ends = append(ends, v)
				}
			}
			ends = append(ends, ends[0])
			var built [2]*BBSTs
			for i, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				built[i], err = Build(g, rumors, ends)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(built[0].Trees, built[1].Trees) || !reflect.DeepEqual(built[0].Depths, built[1].Depths) {
				t.Fatalf("seed %d draw %d: trees differ between GOMAXPROCS 1 and 4", cfg.Seed, draw)
			}
		}
	}
}
