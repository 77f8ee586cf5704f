package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/diffusion"
	"lcrb/internal/gen"
	"lcrb/internal/rrset"
)

// identityProblem builds a planted-community instance with two rumor
// seeds in the community closest to commSize members.
func identityProblem(t *testing.T, nodes, commSize int32, seed uint64) *Problem {
	t.Helper()
	net, err := gen.Community(gen.CommunityConfig{Nodes: nodes, AvgDegree: 6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	planted, err := community.FromAssignment(net.Communities)
	if err != nil {
		t.Fatal(err)
	}
	comm := planted.ClosestBySize(commSize)
	members := planted.Members(comm)
	p, err := NewProblem(net.Graph, planted.Assign(), comm, members[:2])
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEnds() == 0 {
		t.Fatalf("instance n=%d seed=%d has no bridge ends", nodes, seed)
	}
	return p
}

// checkMatchesMonteCarlo runs the default engine and the retained
// Monte-Carlo CELF engine (forced with an explicit OPOAO realization) on
// the same options and requires the same answer: Protectors in order,
// equal BaselineEnds, ProtectedEnds and Achieved, and Gains that are the
// same integer pair counts. Evaluations are not compared: the engines
// count differently.
func checkMatchesMonteCarlo(t *testing.T, p *Problem, opts GreedyOptions) *GreedyResult {
	t.Helper()
	got, err := Greedy(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	mcOpts := opts
	mcOpts.Realization = diffusion.OPOAORealization()
	mcOpts.Workers = 2
	want, err := Greedy(p, mcOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Protectors, want.Protectors) {
		t.Fatalf("Protectors %v, Monte-Carlo engine %v", got.Protectors, want.Protectors)
	}
	if got.BaselineEnds != want.BaselineEnds || got.ProtectedEnds != want.ProtectedEnds || got.Achieved != want.Achieved {
		t.Fatalf("(baseline, protected, achieved) = (%v, %v, %v), Monte-Carlo engine (%v, %v, %v)",
			got.BaselineEnds, got.ProtectedEnds, got.Achieved, want.BaselineEnds, want.ProtectedEnds, want.Achieved)
	}
	if len(got.Gains) != len(want.Gains) {
		t.Fatalf("%d gains, Monte-Carlo engine %d", len(got.Gains), len(want.Gains))
	}
	n := float64(opts.Samples)
	for i := range got.Gains {
		if math.Round(got.Gains[i]*n) != math.Round(want.Gains[i]*n) {
			t.Fatalf("gain %d: %v × %v samples, Monte-Carlo engine %v", i, got.Gains[i], n, want.Gains[i])
		}
	}
	return got
}

// TestGreedyMatchesMonteCarlo pins the engine identity: the default
// engine's lazy cover over its RR sets selects exactly what the retained
// Monte-Carlo CELF engine selects over the same common-random-numbers
// realizations, both taking algorithm 1's argmax over every node, across
// instances, sample counts, protector caps, lazy and plain loops, and
// horizons. The cap axis gives MaxProtectors each of its forms: capped
// below the selection's natural length, the default 0, negative (also
// |B|), and |B| set explicitly.
func TestGreedyMatchesMonteCarlo(t *testing.T) {
	for _, inst := range []struct {
		nodes, comm int32
		seed        uint64
	}{{100, 15, 41}, {120, 20, 17}, {150, 20, 5}} {
		p := identityProblem(t, inst.nodes, inst.comm, inst.seed)
		caps := []struct {
			name string
			opts GreedyOptions
		}{
			{"capped", GreedyOptions{MaxProtectors: 2}},
			{"default", GreedyOptions{}},
			{"uncapped", GreedyOptions{MaxProtectors: -1}},
			{"explicit", GreedyOptions{MaxProtectors: p.NumEnds()}},
		}
		for _, samples := range []int{10, 30} {
			for _, pc := range caps {
				for _, plain := range []bool{false, true} {
					for _, hops := range []int{1, 31} {
						name := fmt.Sprintf("n%d-seed%d/samples=%d/%s/plain=%v/hops=%d",
							inst.nodes, inst.seed, samples, pc.name, plain, hops)
						t.Run(name, func(t *testing.T) {
							opts := pc.opts
							opts.Alpha, opts.Samples, opts.Seed, opts.MaxHops, opts.Plain = 0.9, samples, inst.seed+3, hops, plain
							checkMatchesMonteCarlo(t, p, opts)
						})
					}
				}
			}
		}
	}
}

// TestGreedyMatchesMonteCarloTieHeavy runs the identity on one sample, so
// every gain is a small integer and candidates tie on it: the engines must
// break every tie the same way, to the smaller node id. The test insists
// the first selection really is a tie.
func TestGreedyMatchesMonteCarloTieHeavy(t *testing.T) {
	p := identityProblem(t, 300, 40, 41)
	for _, plain := range []bool{false, true} {
		opts := GreedyOptions{Alpha: 0.99, Samples: 1, Seed: 9, Plain: plain}
		res := checkMatchesMonteCarlo(t, p, opts)
		if len(res.Protectors) < 2 {
			t.Fatalf("plain=%v: only %d selections", plain, len(res.Protectors))
		}
	}

	// Count the candidates that share the first selection's gain.
	smp := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, DefaultGreedyHops, false)
	reals, err := smp.Draw(rrset.Seeds(9, 1), nil, 1, func(int) error { return nil }, IsInterruption)
	if err != nil {
		t.Fatal(err)
	}
	ix := rrset.NewIndex(reals[0].Pairs, 1)
	var lengths []int
	for r := range ix.Nodes {
		lengths = append(lengths, int(ix.Off[r+1]-ix.Off[r]))
	}
	best := slices.Max(lengths)
	tied := 0
	for _, l := range lengths {
		if l == best {
			tied++
		}
	}
	if tied < 2 {
		t.Fatalf("the first selection's gain %d is held by %d candidate: no tie to break", best, tied)
	}
}
