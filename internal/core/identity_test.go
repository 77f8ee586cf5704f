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

// monteCarloGreedy is the test oracle for GreedyContext: algorithm 1
// with CELF lazy evaluation, scoring every candidate set by re-simulating
// the opts.Samples common-random-numbers realizations with
// diffusion.RunOPOAORealization. Scores are integer counts of bridge ends
// left uninfected, summed over the realizations; gain ties go to the
// smaller node id. Every non-rumor node is a candidate.
func monteCarloGreedy(t *testing.T, p *Problem, opts GreedyOptions) *GreedyResult {
	t.Helper()
	if opts.MaxHops == 0 {
		opts.MaxHops = DefaultGreedyHops
	}
	maxProtectors := opts.MaxProtectors
	if maxProtectors <= 0 {
		maxProtectors = p.NumEnds()
	}
	seeds := rrset.Seeds(opts.Seed, opts.Samples)
	sigma := func(protectors []int32) int {
		n := 0
		for _, seed := range seeds {
			res, err := diffusion.RunOPOAORealization(p.Graph, p.Rumors, protectors, seed, diffusion.Options{MaxHops: opts.MaxHops})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range p.Ends {
				if res.Status[e] != diffusion.Infected {
					n++
				}
			}
		}
		return n
	}

	// A queued gain was scored at round `round`; by submodularity it bounds
	// the candidate's current gain, so only a stale top is re-scored and a
	// fresh top is the round's argmax. Unscored candidates start on top.
	type entry struct {
		node        int32
		gain, round int
	}
	var queue []entry
	for u := int32(0); u < p.Graph.NumNodes(); u++ {
		if !p.IsRumor(u) {
			queue = append(queue, entry{u, math.MaxInt, -1})
		}
	}
	score := sigma(nil)
	target := p.RequiredEnds(opts.Alpha) * opts.Samples
	n := float64(opts.Samples)
	res := &GreedyResult{Protectors: []int32{}, BaselineEnds: float64(score) / n}
	for score < target && len(res.Protectors) < maxProtectors && len(queue) > 0 {
		top := 0
		for i, e := range queue {
			if e.gain > queue[top].gain || e.gain == queue[top].gain && e.node < queue[top].node {
				top = i
			}
		}
		e := &queue[top]
		if e.round != len(res.Protectors) {
			e.gain = sigma(append(slices.Clone(res.Protectors), e.node)) - score
			e.round = len(res.Protectors)
			continue
		}
		if e.gain <= 0 {
			break
		}
		res.Protectors = append(res.Protectors, e.node)
		res.Gains = append(res.Gains, float64(e.gain)/n)
		score += e.gain
		queue = slices.Delete(queue, top, top+1)
	}
	res.ProtectedEnds = float64(score) / n
	res.Achieved = score >= target
	return res
}

// checkMatchesMonteCarlo runs GreedyContext and the Monte-Carlo oracle on
// the same options and requires the same answer: Protectors in order,
// equal BaselineEnds, ProtectedEnds and Achieved, and Gains that are the
// same integer pair counts.
func checkMatchesMonteCarlo(t *testing.T, p *Problem, opts GreedyOptions) *GreedyResult {
	t.Helper()
	got, err := Greedy(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := monteCarloGreedy(t, p, opts)
	if !reflect.DeepEqual(got.Protectors, want.Protectors) {
		t.Fatalf("Protectors %v, Monte-Carlo oracle %v", got.Protectors, want.Protectors)
	}
	if got.BaselineEnds != want.BaselineEnds || got.ProtectedEnds != want.ProtectedEnds || got.Achieved != want.Achieved {
		t.Fatalf("(baseline, protected, achieved) = (%v, %v, %v), Monte-Carlo oracle (%v, %v, %v)",
			got.BaselineEnds, got.ProtectedEnds, got.Achieved, want.BaselineEnds, want.ProtectedEnds, want.Achieved)
	}
	if len(got.Gains) != len(want.Gains) {
		t.Fatalf("%d gains, Monte-Carlo oracle %d", len(got.Gains), len(want.Gains))
	}
	n := float64(opts.Samples)
	for i := range got.Gains {
		if math.Round(got.Gains[i]*n) != math.Round(want.Gains[i]*n) {
			t.Fatalf("gain %d: %v × %v samples, Monte-Carlo oracle %v", i, got.Gains[i], n, want.Gains[i])
		}
	}
	return got
}

// TestGreedyMatchesMonteCarlo pins the engine identity: GreedyContext's
// lazy cover over its RR sets selects exactly what the Monte-Carlo oracle
// selects over the same common-random-numbers
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
