package heuristic

import (
	stdctx "context"
	"errors"
	"reflect"
	"sort"
	"testing"

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

func starPlusChain(t *testing.T) *graph.Graph {
	// Node 0 has out-degree 3 (hub); 4 -> 5 -> 6 chain; rumor will be 4.
	return mustGraph(t, 7, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3},
		{U: 4, V: 5}, {U: 5, V: 6},
	})
}

func TestMaxDegreeRank(t *testing.T) {
	g := starPlusChain(t)
	ctx := Context{Graph: g, Rumors: []int32{4}}
	rank, err := MaxDegree{}.Rank(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rank[0] != 0 {
		t.Fatalf("top-ranked = %d, want hub 0", rank[0])
	}
	for _, u := range rank {
		if u == 4 {
			t.Fatal("rumor seed ranked as protector")
		}
	}
	if len(rank) != 6 {
		t.Fatalf("rank length = %d, want 6 (all non-rumor nodes)", len(rank))
	}
}

func TestMaxDegreeNilGraph(t *testing.T) {
	if _, err := (MaxDegree{}).Rank(Context{}, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestProximityRanksRumorNeighbours(t *testing.T) {
	g := mustGraph(t, 6, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 3, V: 2}, {U: 3, V: 4},
	})
	ctx := Context{Graph: g, Rumors: []int32{0, 3}}
	rank, err := Proximity{}.Rank(ctx, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	got := append([]int32(nil), rank...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	// Out-neighbours of {0,3} are {1,2,4}, deduplicated.
	if !reflect.DeepEqual(got, []int32{1, 2, 4}) {
		t.Fatalf("proximity candidates = %v, want {1,2,4}", got)
	}
}

func TestProximityExcludesRumors(t *testing.T) {
	// Rumor 0 points at rumor 1.
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	ctx := Context{Graph: g, Rumors: []int32{0, 1}}
	rank, err := Proximity{}.Rank(ctx, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rank, []int32{2}) {
		t.Fatalf("rank = %v, want [2]", rank)
	}
}

func TestProximityDeterministicPerSeed(t *testing.T) {
	g := starPlusChain(t)
	ctx := Context{Graph: g, Rumors: []int32{0}}
	a, err := Proximity{}.Rank(ctx, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Proximity{}.Rank(ctx, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different proximity rankings")
	}
}

func TestProximityRequiresSource(t *testing.T) {
	g := starPlusChain(t)
	if _, err := (Proximity{}).Rank(Context{Graph: g}, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestRandomCoversAllNonRumors(t *testing.T) {
	g := starPlusChain(t)
	ctx := Context{Graph: g, Rumors: []int32{0}}
	rank, err := Random{}.Rank(ctx, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rank) != 6 {
		t.Fatalf("rank length = %d, want 6", len(rank))
	}
	seen := make(map[int32]bool)
	for _, u := range rank {
		if u == 0 {
			t.Fatal("rumor ranked")
		}
		if seen[u] {
			t.Fatalf("node %d ranked twice", u)
		}
		seen[u] = true
	}
}

func TestRandomRequiresSource(t *testing.T) {
	g := starPlusChain(t)
	if _, err := (Random{}).Rank(Context{Graph: g}, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestNoBlocking(t *testing.T) {
	rank, err := NoBlocking{}.Rank(Context{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rank) != 0 {
		t.Fatalf("NoBlocking ranked %v", rank)
	}
}

func TestSelectPrefix(t *testing.T) {
	g := starPlusChain(t)
	ctx := Context{Graph: g, Rumors: []int32{4}}
	got, err := Select(MaxDegree{}, ctx, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 {
		t.Fatalf("Select = %v", got)
	}
	// Clamping.
	all, err := Select(MaxDegree{}, ctx, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("Select(99) returned %d", len(all))
	}
	none, err := Select(MaxDegree{}, ctx, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("Select(-1) returned %v", none)
	}
}

func TestSelectorNames(t *testing.T) {
	tests := []struct {
		sel  Selector
		want string
	}{
		{MaxDegree{}, "MaxDegree"},
		{Proximity{}, "Proximity"},
		{Random{}, "Random"},
		{NoBlocking{}, "NoBlocking"},
	}
	for _, tt := range tests {
		if got := tt.sel.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestSelectContextCanceled(t *testing.T) {
	g := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	ctx, cancel := stdctx.WithCancel(stdctx.Background())
	cancel()
	_, err := SelectContext(ctx, MaxDegree{}, Context{Graph: g, Rumors: []int32{0}}, 2, nil)
	if !errors.Is(err, stdctx.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	seeds, err := Select(MaxDegree{}, Context{Graph: g, Rumors: []int32{0}}, 2, nil)
	if err != nil || len(seeds) == 0 {
		t.Fatalf("plain Select broken: %v, %v", seeds, err)
	}
}
