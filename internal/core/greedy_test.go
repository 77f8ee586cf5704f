package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/diffusion"
	"lcrb/internal/gen"
	"lcrb/internal/graph"
	"lcrb/internal/rng"
)

func TestGreedyFixtureAchievesTarget(t *testing.T) {
	p := fixtureProblem(t)
	res, err := Greedy(p, GreedyOptions{Alpha: 0.9, Samples: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Achieved {
		t.Fatalf("target not achieved: σ̂ = %.2f of %d ends", res.ProtectedEnds, p.NumEnds())
	}
	if res.ProtectedEnds < res.BaselineEnds {
		t.Fatalf("final σ̂ %.2f below baseline %.2f", res.ProtectedEnds, res.BaselineEnds)
	}
	for _, u := range res.Protectors {
		if p.IsRumor(u) {
			t.Fatalf("rumor seed %d selected as protector", u)
		}
	}
}

func TestGreedyValidation(t *testing.T) {
	p := fixtureProblem(t)
	if _, err := Greedy(nil, GreedyOptions{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	if _, err := Greedy(p, GreedyOptions{Alpha: 1}); err == nil {
		t.Fatal("alpha = 1 accepted (that is the LCRB-D regime)")
	}
	if _, err := Greedy(p, GreedyOptions{Alpha: -0.1}); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := Greedy(p, GreedyOptions{Samples: -5}); err == nil {
		t.Fatal("negative samples accepted")
	}
	if res, err := Greedy(p, GreedyOptions{MaxHops: -1}); err == nil || res != nil {
		t.Fatalf("negative max hops answered (%+v, %v), want an error and no result", res, err)
	}
}

func TestGreedyNoBridgeEnds(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}})
	p, err := NewProblem(g, []int32{0, 0, 1}, 0, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Greedy(p, GreedyOptions{}); !errors.Is(err, ErrNoBridgeEnds) {
		t.Fatalf("err = %v, want ErrNoBridgeEnds", err)
	}
}

func TestGreedyDeterministic(t *testing.T) {
	p := fixtureProblem(t)
	a, err := Greedy(p, GreedyOptions{Alpha: 0.9, Samples: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Greedy(p, GreedyOptions{Alpha: 0.9, Samples: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Protectors, b.Protectors) || a.ProtectedEnds != b.ProtectedEnds {
		t.Fatal("same seed produced different greedy runs")
	}
}

func TestGreedyCELFMatchesPlain(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 300, AvgDegree: 6, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	planted, err := community.FromAssignment(net.Communities)
	if err != nil {
		t.Fatal(err)
	}
	comm := planted.ClosestBySize(40)
	members := planted.Members(comm)
	rumors := []int32{members[0], members[1]}

	p, err := NewProblem(net.Graph, planted.Assign(), comm, rumors)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEnds() == 0 {
		t.Skip("no bridge ends for this draw")
	}
	base := GreedyOptions{Alpha: 0.8, Samples: 10, Seed: 3}
	celf, err := Greedy(p, base)
	if err != nil {
		t.Fatal(err)
	}
	plainOpts := base
	plainOpts.Plain = true
	plain, err := Greedy(p, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(celf.Protectors, plain.Protectors) {
		t.Fatalf("CELF %v != plain %v", celf.Protectors, plain.Protectors)
	}
	if celf.Evaluations > plain.Evaluations {
		t.Fatalf("CELF used %d evaluations, plain %d; lazy evaluation should not cost more",
			celf.Evaluations, plain.Evaluations)
	}
}

func TestGreedyGainsDiminishOnAverage(t *testing.T) {
	// Submodularity in expectation: the recorded marginal gains of the
	// greedy selection must be non-increasing (greedy always picks the
	// max-gain candidate, so this holds exactly per run).
	net, err := gen.Community(gen.CommunityConfig{Nodes: 400, AvgDegree: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	planted, err := community.FromAssignment(net.Communities)
	if err != nil {
		t.Fatal(err)
	}
	comm := planted.ClosestBySize(50)
	members := planted.Members(comm)
	p, err := NewProblem(net.Graph, planted.Assign(), comm, members[:2])
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEnds() < 3 {
		t.Skip("too few bridge ends for a meaningful check")
	}
	res, err := Greedy(p, GreedyOptions{Alpha: 0.95, Samples: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Gains); i++ {
		// Allow tiny Monte-Carlo jitter.
		if res.Gains[i] > res.Gains[i-1]+1e-9 {
			t.Fatalf("gains increased at step %d: %v", i, res.Gains)
		}
	}
}

func TestGreedyImprovesOverNoBlocking(t *testing.T) {
	net, err := gen.Community(gen.CommunityConfig{Nodes: 500, AvgDegree: 8, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	planted, err := community.FromAssignment(net.Communities)
	if err != nil {
		t.Fatal(err)
	}
	comm := planted.ClosestBySize(60)
	members := planted.Members(comm)
	src := rng.New(9)
	var rumors []int32
	for _, i := range src.SampleInt32(int32(len(members)), 3) {
		rumors = append(rumors, members[i])
	}
	p, err := NewProblem(net.Graph, planted.Assign(), comm, rumors)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEnds() == 0 {
		t.Skip("no bridge ends for this draw")
	}
	res, err := Greedy(p, GreedyOptions{Alpha: 0.9, Samples: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Protectors) == 0 {
		// Baseline already met the target: acceptable, nothing to compare.
		if res.BaselineEnds < float64(p.RequiredEnds(0.9)) {
			t.Fatal("no protectors selected yet target unmet")
		}
		return
	}
	// Compare mean infected counts with and without the protectors under
	// live OPOAO simulation.
	mc := diffusion.MonteCarlo{Model: diffusion.OPOAO{}, Samples: 30, Seed: 6}
	without, err := mc.RunContext(context.Background(), net.Graph, rumors, nil, diffusion.Options{MaxHops: 31})
	if err != nil {
		t.Fatal(err)
	}
	with, err := mc.RunContext(context.Background(), net.Graph, rumors, res.Protectors, diffusion.Options{MaxHops: 31})
	if err != nil {
		t.Fatal(err)
	}
	if with.MeanInfected >= without.MeanInfected {
		t.Fatalf("greedy protectors did not reduce infections: %.1f vs %.1f",
			with.MeanInfected, without.MeanInfected)
	}
}

func TestGreedyMaxProtectorsCap(t *testing.T) {
	p := fixtureProblem(t)
	res, err := Greedy(p, GreedyOptions{Alpha: 0.99, Samples: 10, Seed: 8, MaxProtectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Protectors) > 1 {
		t.Fatalf("cap violated: %v", res.Protectors)
	}
}

func TestGreedyEvaluationsCounted(t *testing.T) {
	p := fixtureProblem(t)
	res, err := Greedy(p, GreedyOptions{Alpha: 0.9, Samples: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// At least the baseline evaluation plus one per selection.
	if res.Evaluations < 1+len(res.Protectors) {
		t.Fatalf("Evaluations = %d with %d protectors", res.Evaluations, len(res.Protectors))
	}
}

// TestGreedyOnRoundStreamsPrefixes checks the OnRound hook: one callback
// per committed round, each carrying a safe copy of the growing prefix,
// with the final round matching the result — and the hook must not change
// the selection at all.
func TestGreedyOnRoundStreamsPrefixes(t *testing.T) {
	p := fixtureProblem(t)
	checkOnRoundStreamsPrefixes(t, p, GreedyOptions{Alpha: 0.9, Samples: 20, Seed: 1})
}

func checkOnRoundStreamsPrefixes(t *testing.T, p *Problem, opts GreedyOptions) {
	t.Helper()
	plain, err := Greedy(p, opts)
	if err != nil {
		t.Fatal(err)
	}

	var rounds []GreedyRound
	opts.OnRound = func(r GreedyRound) { rounds = append(rounds, r) }
	hooked, err := Greedy(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Protectors, hooked.Protectors) || plain.ProtectedEnds != hooked.ProtectedEnds {
		t.Fatal("OnRound changed the selection")
	}
	if len(rounds) != len(hooked.Protectors) {
		t.Fatalf("got %d rounds, want %d", len(rounds), len(hooked.Protectors))
	}
	for i, r := range rounds {
		if r.Round != i {
			t.Fatalf("round %d reported index %d", i, r.Round)
		}
		if r.Node != hooked.Protectors[i] {
			t.Fatalf("round %d node = %d, want %d", i, r.Node, hooked.Protectors[i])
		}
		if !reflect.DeepEqual(r.Protectors, hooked.Protectors[:i+1]) {
			t.Fatalf("round %d prefix = %v, want %v", i, r.Protectors, hooked.Protectors[:i+1])
		}
		if r.Gain != hooked.Gains[i] {
			t.Fatalf("round %d gain = %v, want %v", i, r.Gain, hooked.Gains[i])
		}
	}
	last := rounds[len(rounds)-1]
	if last.Score != hooked.ProtectedEnds {
		t.Fatalf("final round score = %v, want %v", last.Score, hooked.ProtectedEnds)
	}
	// The reported prefixes are copies: mutating one must not corrupt the
	// result.
	rounds[0].Protectors[0] = -1
	if hooked.Protectors[0] == -1 {
		t.Fatal("OnRound shares the selection's backing array")
	}

	// Plain mode fires the same rounds.
	var plainRounds []GreedyRound
	opts.Plain = true
	opts.OnRound = func(r GreedyRound) { plainRounds = append(plainRounds, r) }
	if _, err := Greedy(p, opts); err != nil {
		t.Fatal(err)
	}
	if len(plainRounds) != len(rounds) {
		t.Fatalf("plain mode fired %d rounds, CELF %d", len(plainRounds), len(rounds))
	}
	for i := range plainRounds {
		if plainRounds[i].Node != rounds[i].Node || plainRounds[i].Round != rounds[i].Round {
			t.Fatalf("plain round %d = %+v, CELF %+v", i, plainRounds[i], rounds[i])
		}
	}
}
