package diffusion

import (
	"context"
	"testing"
	"testing/quick"

	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

func TestDOAMBroadcastOnPath(t *testing.T) {
	g := pathGraph(t, 5)
	res, err := DOAM{}.RunContext(context.Background(), g, []int32{0}, nil, nil, Options{RecordHops: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected != 5 {
		t.Fatalf("Infected = %d, want 5", res.Infected)
	}
	for h, want := range []int32{1, 2, 3, 4, 5} {
		if res.InfectedAtHop[h] != want {
			t.Fatalf("InfectedAtHop[%d] = %d, want %d", h, res.InfectedAtHop[h], want)
		}
	}
}

func TestDOAMActivatesAllNeighboursAtOnce(t *testing.T) {
	// Star: 0 -> {1,2,3,4}. One hop infects everything.
	g := mustGraph(t, 5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}})
	res, err := DOAM{}.RunContext(context.Background(), g, []int32{0}, nil, nil, Options{RecordHops: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.InfectedAtHop[1] != 5 {
		t.Fatalf("after 1 hop infected = %d, want 5", res.InfectedAtHop[1])
	}
}

func TestDOAMProtectorWinsTie(t *testing.T) {
	// 0(R) -> 2 and 1(P) -> 2: both frontiers reach node 2 at hop 1.
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}})
	res, err := DOAM{}.RunContext(context.Background(), g, []int32{0}, []int32{1}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[2] != Protected {
		t.Fatalf("node 2 = %v, want protected", res.Status[2])
	}
}

func TestDOAMRumorWinsWhenCloser(t *testing.T) {
	// R at 0 is 1 hop from node 2; P at 3 is 2 hops (3 -> 4 -> 2).
	g := mustGraph(t, 5, []graph.Edge{{U: 0, V: 2}, {U: 3, V: 4}, {U: 4, V: 2}})
	res, err := DOAM{}.RunContext(context.Background(), g, []int32{0}, []int32{3}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[2] != Infected {
		t.Fatalf("node 2 = %v, want infected", res.Status[2])
	}
}

func TestDOAMBlocking(t *testing.T) {
	// Path 0(R) -> 1 -> 2 -> 3, P at 4 with 4 -> 1. Both reach node 1 at
	// hop 1; P wins it, and because node 1 is the cut vertex the rest of
	// the path is protected too.
	g := mustGraph(t, 5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 4, V: 1}})
	res, err := DOAM{}.RunContext(context.Background(), g, []int32{0}, []int32{4}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(1); v <= 3; v++ {
		if res.Status[v] != Protected {
			t.Fatalf("node %d = %v, want protected", v, res.Status[v])
		}
	}
	if res.Infected != 1 {
		t.Fatalf("Infected = %d, want 1 (just the seed)", res.Infected)
	}
}

func TestDOAMDeterministic(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 300, AvgDegree: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := DOAM{}.RunContext(context.Background(), net.Graph, []int32{0, 5}, []int32{10}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// DOAM ignores the source: even a live RNG must not change anything.
	b, err := DOAM{}.RunContext(context.Background(), net.Graph, []int32{0, 5}, []int32{10}, rng.New(99), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Status {
		if a.Status[v] != b.Status[v] {
			t.Fatal("DOAM is not deterministic")
		}
	}
}

func TestDOAMTerminatesNaturally(t *testing.T) {
	g := pathGraph(t, 4)
	res, err := DOAM{}.RunContext(context.Background(), g, []int32{0}, nil, nil, Options{MaxHops: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// 3 hops to cover the path, plus one whose frontier has no targets.
	if res.Hops > 5 {
		t.Fatalf("Hops = %d, expected early termination", res.Hops)
	}
}

// TestDOAMMatchesDistancesWithoutProtectors checks DOAM against plain BFS:
// with no competing cascade, a node is infected iff it is reachable, and
// the hop series matches BFS level counts.
func TestDOAMMatchesDistancesWithoutProtectors(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		g, err := gen.ErdosRenyi(50, 150, seed)
		if err != nil {
			return false
		}
		seeds := src.SampleInt32(g.NumNodes(), 2)
		res, err := DOAM{}.RunContext(context.Background(), g, seeds, nil, nil, Options{})
		if err != nil {
			return false
		}
		dist := graph.Distances(g, seeds, graph.Forward)
		for v, d := range dist {
			infected := res.Status[v] == Infected
			if (d != graph.Unreachable) != infected {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDOAMDistanceRule checks the arrival-time rule on graphs where the
// cascades cannot block each other: a reachable node ends protected iff
// distP <= distR (with distP finite), infected iff distR < distP.
func TestDOAMDistanceRule(t *testing.T) {
	// Two separate arms into a shared sink chain keeps paths disjoint.
	//   0(R) -> 1 -> 2 -> sink(5), 3(P) -> 4 -> sink(5)
	g := mustGraph(t, 6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 5},
		{U: 3, V: 4}, {U: 4, V: 5},
	})
	res, err := DOAM{}.RunContext(context.Background(), g, []int32{0}, []int32{3}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// distR(5) = 3, distP(5) = 2: P arrives first.
	if res.Status[5] != Protected {
		t.Fatalf("sink = %v, want protected", res.Status[5])
	}
}

func TestDOAMSeedValidation(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := (DOAM{}).RunContext(context.Background(), g, []int32{7}, nil, nil, Options{}); err == nil {
		t.Fatal("out-of-range rumor accepted")
	}
}

func TestDOAMProgressive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		g, err := gen.ErdosRenyi(60, 240, seed)
		if err != nil {
			return false
		}
		seeds := src.SampleInt32(g.NumNodes(), 5)
		res, err := DOAM{}.RunContext(context.Background(), g, seeds[:2], seeds[2:], nil, Options{RecordHops: true})
		if err != nil {
			return false
		}
		for h := 1; h < len(res.InfectedAtHop); h++ {
			if res.InfectedAtHop[h] < res.InfectedAtHop[h-1] ||
				res.ProtectedAtHop[h] < res.ProtectedAtHop[h-1] {
				return false
			}
		}
		return res.CountStatus(Infected) == res.Infected &&
			res.CountStatus(Protected) == res.Protected
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
