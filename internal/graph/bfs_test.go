package graph

import (
	"reflect"
	"testing"

	"lcrb/internal/rng"
)

// chain returns the path graph 0 -> 1 -> ... -> n-1.
func chain(t *testing.T, n int32) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := int32(0); i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDistancesChain(t *testing.T) {
	g := chain(t, 5)
	got := Distances(g, []int32{0}, Forward)
	want := []int32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Distances = %v, want %v", got, want)
	}
}

func TestDistancesBackward(t *testing.T) {
	g := chain(t, 5)
	got := Distances(g, []int32{4}, Backward)
	want := []int32{4, 3, 2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("backward Distances = %v, want %v", got, want)
	}
}

func TestDistancesUnreachable(t *testing.T) {
	g := buildMust(t, 4, []Edge{{0, 1}})
	got := Distances(g, []int32{0}, Forward)
	want := []int32{0, 1, Unreachable, Unreachable}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Distances = %v, want %v", got, want)
	}
}

func TestDistancesMultiSource(t *testing.T) {
	g := chain(t, 7)
	got := Distances(g, []int32{0, 4}, Forward)
	want := []int32{0, 1, 2, 3, 0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-source Distances = %v, want %v", got, want)
	}
}

func TestDistancesDuplicateAndInvalidSources(t *testing.T) {
	g := chain(t, 3)
	got := Distances(g, []int32{0, 0, -1, 99}, Forward)
	want := []int32{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Distances = %v, want %v", got, want)
	}
}

func TestDistancesBounded(t *testing.T) {
	g := chain(t, 6)
	got := DistancesBounded(g, []int32{0}, Forward, 2)
	want := []int32{0, 1, 2, Unreachable, Unreachable, Unreachable}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DistancesBounded = %v, want %v", got, want)
	}
}

func TestDistancesBoundedZero(t *testing.T) {
	g := chain(t, 3)
	got := DistancesBounded(g, []int32{1}, Forward, 0)
	want := []int32{Unreachable, 0, Unreachable}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DistancesBounded depth 0 = %v, want %v", got, want)
	}
}

func TestDistancesShortestOnDiamond(t *testing.T) {
	// 0 -> 1 -> 3 and 0 -> 2 -> 3 -> 4; plus long detour 1 -> 5 -> 4.
	g := buildMust(t, 6, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {1, 5}, {5, 4}})
	got := Distances(g, []int32{0}, Forward)
	want := []int32{0, 1, 1, 2, 3, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Distances = %v, want %v", got, want)
	}
}

func TestReachable(t *testing.T) {
	g := buildMust(t, 6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	got := Reachable(g, []int32{0}, Forward)
	want := []int32{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Reachable = %v, want %v", got, want)
	}
	back := Reachable(g, []int32{4}, Backward)
	if !reflect.DeepEqual(back, []int32{4, 3}) {
		t.Fatalf("backward Reachable = %v, want [4 3]", back)
	}
}

func TestRestrictedDistances(t *testing.T) {
	// Community = {0, 1}; node 2 and 3 are outside. Expansion must stop at 2,
	// so 3 stays unreachable even though 2 -> 3 exists.
	g := buildMust(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	inside := func(u NodeID) bool { return u <= 1 }
	got := RestrictedDistances(g, []int32{0}, Forward, inside)
	want := []int32{0, 1, 2, Unreachable}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RestrictedDistances = %v, want %v", got, want)
	}
}

func TestRestrictedDistancesSourceAlwaysExpands(t *testing.T) {
	// Even if the source fails the predicate it must still expand, mirroring
	// rumor seeds that sit on a community boundary.
	g := buildMust(t, 3, []Edge{{0, 1}, {1, 2}})
	got := RestrictedDistances(g, []int32{0}, Forward, func(u NodeID) bool { return false })
	want := []int32{0, 1, Unreachable}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RestrictedDistances = %v, want %v", got, want)
	}
}

func TestRestrictedMatchesUnrestrictedWhenAllAllowed(t *testing.T) {
	src := rng.New(2001)
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(src, 50)
		s := src.Int32n(g.NumNodes())
		a := Distances(g, []int32{s}, Forward)
		b := RestrictedDistances(g, []int32{s}, Forward, func(NodeID) bool { return true })
		if !reflect.DeepEqual(a, b) {
			t.Fatal("restricted BFS with permissive predicate diverged from plain BFS")
		}
	}
}

func TestForwardBackwardSymmetry(t *testing.T) {
	// dist_forward(u -> v) on g equals dist_forward(v -> u) on reverse(g).
	src := rng.New(2002)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(src, 40)
		s := src.Int32n(g.NumNodes())
		fwd := Distances(g, []int32{s}, Backward)
		rev := Distances(g.Reverse(), []int32{s}, Forward)
		if !reflect.DeepEqual(fwd, rev) {
			t.Fatal("Backward on g != Forward on Reverse(g)")
		}
	}
}

func TestDistanceStepProperty(t *testing.T) {
	// For every edge (u, v): dist(v) <= dist(u) + 1 when u is reachable.
	src := rng.New(2003)
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(src, 50)
		s := src.Int32n(g.NumNodes())
		dist := Distances(g, []int32{s}, Forward)
		for _, e := range g.Edges() {
			if dist[e.U] == Unreachable {
				continue
			}
			if dist[e.V] == Unreachable || dist[e.V] > dist[e.U]+1 {
				t.Fatalf("edge (%d,%d): dist %d -> %d violates BFS step property",
					e.U, e.V, dist[e.U], dist[e.V])
			}
		}
	}
}
