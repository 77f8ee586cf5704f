package diffusion

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

func TestOPOAORequiresSource(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := (OPOAO{}).RunContext(context.Background(), g, []int32{0}, nil, nil, Options{}); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestOPOAOPathIsDeterministicByForcedChoices(t *testing.T) {
	// On a directed path every node has out-degree <= 1, so OPOAO has no
	// real choices: the rumor must walk the whole path.
	g := pathGraph(t, 6)
	res, err := OPOAO{}.RunContext(context.Background(), g, []int32{0}, nil, rng.New(1), Options{RecordHops: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected != 6 {
		t.Fatalf("Infected = %d, want 6", res.Infected)
	}
	// One new infection per hop: cumulative 1,2,3,4,5,6.
	for h, want := range []int32{1, 2, 3, 4, 5, 6} {
		if res.InfectedAtHop[h] != want {
			t.Fatalf("InfectedAtHop[%d] = %d, want %d", h, res.InfectedAtHop[h], want)
		}
	}
}

func TestOPOAOProtectorPriorityOnTie(t *testing.T) {
	// Rumor at 0 and protector at 1 both have a single out-edge to node 2,
	// so both propose node 2 at step 1; P must win. Repeat across seeds to
	// cover any ordering.
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}})
	for seed := uint64(0); seed < 20; seed++ {
		res, err := OPOAO{}.RunContext(context.Background(), g, []int32{0}, []int32{1}, rng.New(seed), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status[2] != Protected {
			t.Fatalf("seed %d: node 2 = %v, want protected", seed, res.Status[2])
		}
	}
}

func TestOPOAOBlockingOnPath(t *testing.T) {
	// 0(R) -> 1(P) -> 2 -> 3: the protector sits on the only path, so the
	// rumor can never pass and nodes 2, 3 end protected.
	g := pathGraph(t, 4)
	res, err := OPOAO{}.RunContext(context.Background(), g, []int32{0}, []int32{1}, rng.New(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected != 1 || res.Protected != 3 {
		t.Fatalf("Infected=%d Protected=%d, want 1/3", res.Infected, res.Protected)
	}
}

func TestOPOAOSeedsKeepStatus(t *testing.T) {
	g := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 2, V: 3}})
	res, err := OPOAO{}.RunContext(context.Background(), g, []int32{0}, []int32{2}, rng.New(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[0] != Infected || res.Status[2] != Protected {
		t.Fatal("seed statuses changed during simulation")
	}
}

func TestOPOAOIsolatedSeedStops(t *testing.T) {
	g := mustGraph(t, 3, nil)
	res, err := OPOAO{}.RunContext(context.Background(), g, []int32{0}, nil, rng.New(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected != 1 || res.Hops != 0 {
		t.Fatalf("isolated seed: Infected=%d Hops=%d, want 1/0", res.Infected, res.Hops)
	}
}

func TestOPOAOMaxHopsBounds(t *testing.T) {
	g := pathGraph(t, 10)
	res, err := OPOAO{}.RunContext(context.Background(), g, []int32{0}, nil, rng.New(6), Options{MaxHops: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected != 4 {
		t.Fatalf("Infected after 3 hops = %d, want 4", res.Infected)
	}
}

func TestOPOAOInvariants(t *testing.T) {
	// Structural invariants over random networks, seeds and draws:
	// counts match statuses, cumulative series are non-decreasing, and
	// the final series entries equal the final counts.
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(netSeed, runSeed uint64) bool {
		src := rng.New(netSeed)
		g, err := gen.ErdosRenyi(60, 180, netSeed)
		if err != nil {
			return false
		}
		nr := int(src.Int32n(4)) + 1
		np := int(src.Int32n(4))
		seeds := src.SampleInt32(g.NumNodes(), int32(nr+np))
		rumors, protectors := seeds[:nr], seeds[nr:]

		res, err := OPOAO{}.RunContext(context.Background(), g, rumors, protectors, rng.New(runSeed), Options{RecordHops: true, MaxHops: 40})
		if err != nil {
			return false
		}
		if res.CountStatus(Infected) != res.Infected || res.CountStatus(Protected) != res.Protected {
			return false
		}
		for h := 1; h < len(res.InfectedAtHop); h++ {
			if res.InfectedAtHop[h] < res.InfectedAtHop[h-1] ||
				res.ProtectedAtHop[h] < res.ProtectedAtHop[h-1] {
				return false
			}
		}
		last := len(res.InfectedAtHop) - 1
		return res.InfectedAtHop[last] == res.Infected && res.ProtectedAtHop[last] == res.Protected
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOPOAORealizationDeterministic(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunOPOAORealization(g, []int32{0, 1}, []int32{2}, 42, Options{MaxHops: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOPOAORealization(g, []int32{0, 1}, []int32{2}, 42, Options{MaxHops: 20})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Status {
		if a.Status[v] != b.Status[v] {
			t.Fatal("same realization seed produced different outcomes")
		}
	}
}

// TestOPOAORealizationIgnoresEarlierRuns reruns realizations on a small
// graph after runs on a larger, deeper one have left the pooled scratch
// full of stale stamps, reach marks and buffers, and requires the same
// results, hop counts included.
func TestOPOAORealizationIgnoresEarlierRuns(t *testing.T) {
	small, err := gen.ErdosRenyi(120, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := gen.ErdosRenyi(400, 1600, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxHops: 31, RecordHops: true}
	for realSeed := uint64(1); realSeed <= 20; realSeed++ {
		want, err := RunOPOAORealization(small, []int32{0, 1}, []int32{2}, realSeed, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 3; k++ {
			if _, err := RunOPOAORealization(big, []int32{5}, []int32{6, 7}, realSeed*10+k, opts); err != nil {
				t.Fatal(err)
			}
		}
		got, err := RunOPOAORealization(small, []int32{0, 1}, []int32{2}, realSeed, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("realization %d: result changed after runs on a larger graph", realSeed)
		}
	}
}

func TestOPOAORealizationVariesWithSeed(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 900, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunOPOAORealization(g, []int32{0}, nil, 1, Options{MaxHops: 15})
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for s := uint64(2); s < 6 && !differs; s++ {
		b, err := RunOPOAORealization(g, []int32{0}, nil, s, Options{MaxHops: 15})
		if err != nil {
			t.Fatal(err)
		}
		if a.Infected != b.Infected {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different realization seeds never changed the outcome")
	}
}

// TestOPOAORealizationMonotone checks the monotonicity that underpins the
// paper's Lemma 4: under a fixed realization of the activation choices,
// growing the protector set can only shrink the infected set.
func TestOPOAORealizationMonotone(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(func(netSeed, realSeed uint64) bool {
		src := rng.New(netSeed)
		g, err := gen.ErdosRenyi(50, 200, netSeed)
		if err != nil {
			return false
		}
		seeds := src.SampleInt32(g.NumNodes(), 6)
		rumors := seeds[:2]
		small := seeds[2:3]
		big := seeds[2:6] // superset of small

		rs, err := RunOPOAORealization(g, rumors, small, realSeed, Options{MaxHops: 30})
		if err != nil {
			return false
		}
		rb, err := RunOPOAORealization(g, rumors, big, realSeed, Options{MaxHops: 30})
		if err != nil {
			return false
		}
		// Every node infected under the big set must be infected under the
		// small set.
		for v := range rb.Status {
			if rb.Status[v] == Infected && rs.Status[v] != Infected {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFixedChoiceInRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, u, step int32, rawDeg int32) bool {
		deg := rawDeg%100 + 1
		if deg <= 0 {
			deg = 1
		}
		c := FixedChoice(seed, u, step, deg)
		return c >= 0 && c < deg
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedChoiceSpreads(t *testing.T) {
	// The hash must not collapse: across steps a node's choices should
	// cover many of its 10 potential targets.
	seen := make(map[int32]bool)
	for step := int32(0); step < 100; step++ {
		seen[FixedChoice(99, 5, step, 10)] = true
	}
	if len(seen) < 6 {
		t.Fatalf("fixedChoice covered only %d/10 targets over 100 steps", len(seen))
	}
}

func TestOPOAOOutOfRangeSeeds(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := (OPOAO{}).RunContext(context.Background(), g, []int32{9}, nil, rng.New(1), Options{}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	if _, err := RunOPOAORealization(g, nil, []int32{-2}, 1, Options{}); err == nil {
		t.Fatal("negative protector seed accepted")
	}
}
