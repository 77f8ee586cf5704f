package diffusion

import (
	"context"
	"testing"

	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

func TestCompetitiveICValidation(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := (CompetitiveIC{P: 0.5}).RunContext(context.Background(), g, []int32{0}, nil, nil, Options{}); err == nil {
		t.Fatal("nil source accepted")
	}
	for _, p := range []float64{0, -0.1, 1.5} {
		if _, err := (CompetitiveIC{P: p}).RunContext(context.Background(), g, []int32{0}, nil, rng.New(1), Options{}); err == nil {
			t.Fatalf("probability %v accepted", p)
		}
	}
}

func TestCompetitiveICCertainEdges(t *testing.T) {
	// With p = 1, IC behaves exactly like DOAM.
	g := pathGraph(t, 6)
	res, err := CompetitiveIC{P: 1}.RunContext(context.Background(), g, []int32{0}, nil, rng.New(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected != 6 {
		t.Fatalf("Infected = %d, want 6", res.Infected)
	}
}

func TestCompetitiveICLowProbSpreadsLess(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 400, AvgDegree: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := MonteCarlo{Model: CompetitiveIC{P: 0.05}, Samples: 20, Seed: 1}.
		RunContext(context.Background(), net.Graph, []int32{0, 1, 2}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := MonteCarlo{Model: CompetitiveIC{P: 0.6}, Samples: 20, Seed: 1}.
		RunContext(context.Background(), net.Graph, []int32{0, 1, 2}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lo.MeanInfected >= hi.MeanInfected {
		t.Fatalf("p=0.05 spread %.1f not below p=0.6 spread %.1f", lo.MeanInfected, hi.MeanInfected)
	}
}

func TestCompetitiveICProtectorPriority(t *testing.T) {
	// p = 1 makes both proposals certain; the shared target must go to P.
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}})
	res, err := CompetitiveIC{P: 1}.RunContext(context.Background(), g, []int32{0}, []int32{1}, rng.New(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[2] != Protected {
		t.Fatalf("node 2 = %v, want protected", res.Status[2])
	}
}

func TestCompetitiveLTRequiresSource(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := (CompetitiveLT{}).RunContext(context.Background(), g, []int32{0}, nil, nil, Options{}); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestCompetitiveLTFullInfluenceActivates(t *testing.T) {
	// Node 1's only in-neighbour is the seed, so the incoming weight is 1,
	// which meets any threshold in [0,1): the path must fully infect.
	g := pathGraph(t, 5)
	res, err := CompetitiveLT{}.RunContext(context.Background(), g, []int32{0}, nil, rng.New(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected != 5 {
		t.Fatalf("Infected = %d, want 5", res.Infected)
	}
}

func TestCompetitiveLTTieGoesToProtector(t *testing.T) {
	// Node 2 has in-degree 2 with one R and one P in-neighbour: each
	// contributes weight 1/2, P's share is >= R's, so 2 ends protected.
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}})
	res, err := CompetitiveLT{}.RunContext(context.Background(), g, []int32{0}, []int32{1}, rng.New(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[2] == Infected {
		t.Fatalf("node 2 infected despite equal P weight")
	}
}

func TestCompetitiveLTProgressive(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 300, AvgDegree: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompetitiveLT{}.RunContext(context.Background(), net.Graph, []int32{0, 1}, []int32{2, 3}, rng.New(9), Options{RecordHops: true})
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h < len(res.InfectedAtHop); h++ {
		if res.InfectedAtHop[h] < res.InfectedAtHop[h-1] {
			t.Fatal("infected series decreased")
		}
	}
	if res.CountStatus(Infected) != res.Infected {
		t.Fatal("status/count mismatch")
	}
}

func TestMonteCarloValidation(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := (MonteCarlo{Model: nil, Samples: 5}).RunContext(context.Background(), g, []int32{0}, nil, Options{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := (MonteCarlo{Model: OPOAO{}, Samples: 0}).RunContext(context.Background(), g, []int32{0}, nil, Options{}); err == nil {
		t.Fatal("zero samples accepted")
	}
}

func TestMonteCarloReproducible(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	mc := MonteCarlo{Model: OPOAO{}, Samples: 10, Seed: 77}
	a, err := mc.RunContext(context.Background(), g, []int32{0, 1}, []int32{2}, Options{MaxHops: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mc.RunContext(context.Background(), g, []int32{0, 1}, []int32{2}, Options{MaxHops: 20})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanInfected != b.MeanInfected || a.MeanProtected != b.MeanProtected {
		t.Fatal("same seed produced different Monte-Carlo aggregates")
	}
}

func TestMonteCarloAggregates(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 320, 11)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := MonteCarlo{Model: OPOAO{}, Samples: 25, Seed: 5}.
		RunContext(context.Background(), g, []int32{0}, nil, Options{MaxHops: 15, RecordHops: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Samples != 25 {
		t.Fatalf("Samples = %d", agg.Samples)
	}
	if agg.MeanInfected < 1 {
		t.Fatalf("MeanInfected = %v, the seed alone is 1", agg.MeanInfected)
	}
	if len(agg.MeanInfectedAtHop) != 16 {
		t.Fatalf("hop series length = %d, want 16", len(agg.MeanInfectedAtHop))
	}
	// Per-node probabilities must average to the mean count.
	var sum float64
	for _, p := range agg.InfectedProb {
		if p < 0 || p > 1 {
			t.Fatalf("InfectedProb out of range: %v", p)
		}
		sum += p
	}
	if diff := sum - agg.MeanInfected; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum of InfectedProb %.4f != MeanInfected %.4f", sum, agg.MeanInfected)
	}
	// Padded series end at the mean final count.
	last := agg.MeanInfectedAtHop[len(agg.MeanInfectedAtHop)-1]
	if diff := last - agg.MeanInfected; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("series tail %.4f != MeanInfected %.4f", last, agg.MeanInfected)
	}
}

func TestMonteCarloDeterministicModel(t *testing.T) {
	g := pathGraph(t, 4)
	agg, err := MonteCarlo{Model: DOAM{}, Samples: 3, Seed: 1}.RunContext(context.Background(), g, []int32{0}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.MeanInfected != 4 {
		t.Fatalf("MeanInfected = %v, want exactly 4", agg.MeanInfected)
	}
	for v, p := range agg.InfectedProb {
		if p != 1 {
			t.Fatalf("InfectedProb[%d] = %v, want 1", v, p)
		}
	}
}

func TestAccumulatePadded(t *testing.T) {
	acc := make([]float64, 4)
	accumulatePadded(acc, []int32{1, 3})
	want := []float64{1, 3, 3, 3}
	for i := range acc {
		if acc[i] != want[i] {
			t.Fatalf("acc = %v, want %v", acc, want)
		}
	}
	accumulatePadded(acc, nil) // no-op
	for i := range acc {
		if acc[i] != want[i] {
			t.Fatalf("nil series changed acc to %v", acc)
		}
	}
}
