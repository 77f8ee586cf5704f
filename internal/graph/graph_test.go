package graph

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"lcrb/internal/rng"
)

// buildMust builds a graph from edges and fails the test on error.
func buildMust(t *testing.T, n int32, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

// randomGraph generates a random simple digraph for property tests.
func randomGraph(src *rng.Source, maxN int32) *Graph {
	n := src.Int32n(maxN) + 1
	m := src.Intn(int(n)*3 + 1)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(src.Int32n(n), src.Int32n(n))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := buildMust(t, 0, nil)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestIsolatedNodes(t *testing.T) {
	g := buildMust(t, 5, nil)
	if g.NumNodes() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got %d nodes, %d edges; want 5, 0", g.NumNodes(), g.NumEdges())
	}
	for u := int32(0); u < 5; u++ {
		if len(g.Out(u)) != 0 || len(g.In(u)) != 0 {
			t.Fatalf("node %d has unexpected adjacency", u)
		}
	}
}

func TestBasicAdjacency(t *testing.T) {
	g := buildMust(t, 4, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}})
	tests := []struct {
		node    int32
		wantOut []int32
		wantIn  []int32
	}{
		{0, []int32{1, 2}, []int32{3}},
		{1, []int32{2}, []int32{0}},
		{2, []int32{3}, []int32{0, 1}},
		{3, []int32{0}, []int32{2}},
	}
	for _, tt := range tests {
		if got := g.Out(tt.node); !reflect.DeepEqual(got, tt.wantOut) {
			t.Errorf("Out(%d) = %v, want %v", tt.node, got, tt.wantOut)
		}
		if got := g.In(tt.node); !reflect.DeepEqual(got, tt.wantIn) {
			t.Errorf("In(%d) = %v, want %v", tt.node, got, tt.wantIn)
		}
	}
}

func TestDuplicateEdgesCollapsed(t *testing.T) {
	g := buildMust(t, 2, []Edge{{0, 1}, {0, 1}, {0, 1}})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestSelfLoopsDroppedByDefault(t *testing.T) {
	g := buildMust(t, 2, []Edge{{0, 0}, {0, 1}, {1, 1}})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (self-loops dropped)", g.NumEdges())
	}
}

// TestBuilderDroppedCountsSelfLoops: a self-loop Build refuses did not
// survive into the graph, so Dropped counts it — once per Build, like the
// duplicate overwrites — and a kept self-loop is not dropped.
func TestBuilderDroppedCountsSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1)
	for build := 0; build < 2; build++ {
		if _, err := b.Build(); err != nil {
			t.Fatal(err)
		}
		if b.Dropped() != 2 {
			t.Fatalf("build %d: Dropped = %d, want 2 (two refused self-loops)", build, b.Dropped())
		}
	}
	b.AllowSelfLoops()
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if b.Dropped() != 0 {
		t.Fatalf("Dropped = %d with self-loops allowed, want 0", b.Dropped())
	}
}

func TestSelfLoopsKeptWhenAllowed(t *testing.T) {
	b := NewBuilder(2).AllowSelfLoops()
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 0) {
		t.Fatal("self-loop (0,0) missing")
	}
}

func TestBuilderGrowsNodeSpace(t *testing.T) {
	b := NewBuilder(1)
	b.AddEdge(5, 9)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestBuilderGrow(t *testing.T) {
	b := NewBuilder(3)
	b.Grow(7)
	b.Grow(2) // no shrink
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d, want 7", g.NumNodes())
	}
}

func TestBuilderIgnoresNegativeEndpoints(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(-1, 2)
	b.AddEdge(0, -5)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", b.Dropped())
	}
}

func TestBuilderDroppedAccumulatesAcrossBuilds(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(-1, 0)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	b.AddEdge(0, -1)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2 (the counter follows the Builder's reuse contract)", b.Dropped())
	}
}

func TestBuilderDroppedZeroOnCleanInput(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if b.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", b.Dropped())
	}
}

// Regression: Build used to keep the first recorded instance of a duplicate
// edge and never count the collapse. The delta-stream semantic is last write
// wins, with every overwritten instance visible in Dropped diagnostics.
func TestBuilderDuplicateEdgesLastWriteWinsCounted(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 1) // overwrites the first instance
	b.AddEdge(0, 1) // and again
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2 (two overwritten duplicate instances)", b.Dropped())
	}
}

// The overwrite count is a pure function of the recorded edges, so a reused
// Builder reports the same duplicates after a second Build instead of
// double-counting them; negative-endpoint drops still accumulate.
func TestBuilderDuplicateCountStableAcrossRebuilds(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(-1, 0)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2 (1 duplicate + 1 negative)", b.Dropped())
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d after rebuild, want 2 (overwrites must not double-count)", b.Dropped())
	}
}

func TestFromSortedAdjacency(t *testing.T) {
	rows := [][]int32{{1, 2}, {2}, {3}, {0}}
	g, err := FromSortedAdjacency(rows, false)
	if err != nil {
		t.Fatal(err)
	}
	want := buildMust(t, 4, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}})
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("FromSortedAdjacency = %+v, want the Builder-built graph %+v", g, want)
	}
	// The rows are copied: mutating them must not leak into the graph.
	rows[0][0] = 3
	if got := g.Out(0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("Out(0) = %v after caller mutation, want {1, 2} (rows must be copied)", got)
	}
}

func TestFromSortedAdjacencyRejectsBadRows(t *testing.T) {
	cases := []struct {
		name string
		rows [][]int32
	}{
		{"out of range", [][]int32{{1}, {2}}},
		{"negative", [][]int32{{-1}, {}}},
		{"unsorted", [][]int32{{1, 0}, {}, {}}},
		{"duplicate", [][]int32{{1, 1}, {}}},
		{"self-loop", [][]int32{{0}}},
	}
	for _, tt := range cases {
		if _, err := FromSortedAdjacency(tt.rows, false); err == nil {
			t.Errorf("%s: FromSortedAdjacency accepted invalid rows %v", tt.name, tt.rows)
		}
	}
}

func TestFromSortedAdjacencyAllowsSelfLoops(t *testing.T) {
	g, err := FromSortedAdjacency([][]int32{{0, 1}, {}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 0) || !g.AllowsSelfLoops() {
		t.Fatal("self-loop not kept under allowSelfLoops")
	}
}

// Property: FromSortedAdjacency on a built graph's own rows reproduces the
// graph exactly — the round trip the dyngraph snapshot path relies on.
func TestFromSortedAdjacencyRoundTrip(t *testing.T) {
	src := rng.New(11)
	for i := 0; i < 50; i++ {
		g := randomGraph(src, 40)
		rows := make([][]int32, g.NumNodes())
		for u := int32(0); u < g.NumNodes(); u++ {
			rows[u] = g.Out(u)
		}
		got, err := FromSortedAdjacency(rows, g.AllowsSelfLoops())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("round trip drifted on graph %d", i)
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := buildMust(t, 4, []Edge{{0, 1}, {0, 3}, {2, 1}})
	tests := []struct {
		u, v int32
		want bool
	}{
		{0, 1, true},
		{0, 3, true},
		{2, 1, true},
		{1, 0, false},
		{0, 2, false},
		{3, 3, false},
	}
	for _, tt := range tests {
		if got := g.HasEdge(tt.u, tt.v); got != tt.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tt.u, tt.v, got, tt.want)
		}
	}
}

func TestReverse(t *testing.T) {
	g := buildMust(t, 3, []Edge{{0, 1}, {1, 2}})
	r := g.Reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) {
		t.Fatal("Reverse missing flipped edges")
	}
	if r.HasEdge(0, 1) {
		t.Fatal("Reverse kept original edge direction")
	}
	if r.NumEdges() != g.NumEdges() || r.NumNodes() != g.NumNodes() {
		t.Fatal("Reverse changed counts")
	}
}

func TestReverseTwiceIsIdentity(t *testing.T) {
	src := rng.New(1001)
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(src, 40)
		rr := g.Reverse().Reverse()
		if !reflect.DeepEqual(g.Edges(), rr.Edges()) {
			t.Fatal("double reverse changed the edge set")
		}
	}
}

func TestDegreeSumsEqualEdges(t *testing.T) {
	src := rng.New(1002)
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(src, 60)
		var outSum, inSum int64
		for u := int32(0); u < g.NumNodes(); u++ {
			outSum += int64(g.OutDegree(u))
			inSum += int64(g.InDegree(u))
		}
		if outSum != g.NumEdges() || inSum != g.NumEdges() {
			t.Fatalf("degree sums %d/%d != edges %d", outSum, inSum, g.NumEdges())
		}
	}
}

func TestInOutConsistency(t *testing.T) {
	src := rng.New(1003)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(src, 50)
		for u := int32(0); u < g.NumNodes(); u++ {
			for _, v := range g.Out(u) {
				found := false
				for _, w := range g.In(v) {
					if w == u {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("edge (%d,%d) present in Out but missing from In", u, v)
				}
			}
		}
	}
}

func TestAdjacencySorted(t *testing.T) {
	src := rng.New(1004)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(src, 50)
		for u := int32(0); u < g.NumNodes(); u++ {
			if !sort.SliceIsSorted(g.Out(u), func(i, j int) bool { return g.Out(u)[i] < g.Out(u)[j] }) {
				t.Fatalf("Out(%d) not sorted: %v", u, g.Out(u))
			}
			if !sort.SliceIsSorted(g.In(u), func(i, j int) bool { return g.In(u)[i] < g.In(u)[j] }) {
				t.Fatalf("In(%d) not sorted: %v", u, g.In(u))
			}
		}
	}
}

// selfLoopGraph builds a permissive graph with a self-loop for the
// propagation tests.
func selfLoopGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3).AllowSelfLoops()
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReversePreservesSelfLoopPolicy(t *testing.T) {
	g := selfLoopGraph(t)
	r := g.Reverse()
	if !r.AllowsSelfLoops() {
		t.Fatal("Reverse lost the AllowSelfLoops policy")
	}
	if !r.HasEdge(0, 0) {
		t.Fatal("Reverse lost the self-loop")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	src := rng.New(1007)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(src, 40)
		g2, err := FromEdges(g.NumNodes(), g.Edges())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
			t.Fatal("Edges/FromEdges round trip changed the graph")
		}
	}
}

func TestQuickBuilderNeverDuplicates(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(func(seed uint64) bool {
		g := randomGraph(rng.New(seed), 50)
		edges := g.Edges()
		for i := 1; i < len(edges); i++ {
			if edges[i] == edges[i-1] {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
