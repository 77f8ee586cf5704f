package sketch

import (
	"fmt"
	"reflect"
	"testing"

	"lcrb/internal/bridge"
	"lcrb/internal/core"
	"lcrb/internal/diffusion"
	"lcrb/internal/rng"
)

// TestSigmaEqualsCRNRealizationCount pins the RR-set ≡ CRN identity: a
// sketch and the Monte-Carlo greedy draw their realization seeds from the
// same stream (rng.New(Seed).Uint64(), once per realization) and both walk
// diffusion.FixedChoice, so for every protector set S the sketch's
// Sigma(S) × Samples is exactly the number of bridge ends that
// RunOPOAORealization leaves uninfected, summed over those realizations —
// the count core.Greedy's σ̂ averages. It is checked with ==, not a
// tolerance band, on random sets (drawn from the sketch's candidates and
// from every non-rumor node) over three generated instances at the
// horizons 1, 31 and 64. Sets never hold a rumor seed, as in the greedy,
// so the test also checks that no RR set does.
func TestSigmaEqualsCRNRealizationCount(t *testing.T) {
	for _, inst := range []struct {
		nodes, comm int32
		seed        uint64
	}{{300, 40, 41}, {400, 60, 5}, {250, 30, 17}} {
		p := testProblem(t, inst.nodes, inst.comm, inst.seed)
		rumor := make(map[int32]bool, len(p.Rumors))
		for _, r := range p.Rumors {
			rumor[r] = true
		}
		for _, hops := range []int{1, 31, 64} {
			t.Run(fmt.Sprintf("n%d-seed%d-hops%d", inst.nodes, inst.seed, hops), func(t *testing.T) {
				opts := Options{Samples: 24, Seed: 11, MaxHops: hops}
				set, err := Build(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				seeds := rng.New(opts.Seed)
				realSeeds := make([]uint64, opts.Samples)
				for i := range realSeeds {
					realSeeds[i] = seeds.Uint64()
				}
				// The greedy never seeds a protector on a rumor seed, so no
				// RR set may hold one.
				candidates := set.index.Nodes
				for _, u := range candidates {
					if rumor[u] {
						t.Fatalf("rumor seed %d is in an RR set", u)
					}
				}
				pick := rng.New(inst.seed*1000 + uint64(hops))
				for trial := 0; trial < 16; trial++ {
					// Even trials draw from the sketch's candidates, odd
					// ones from every non-rumor node; sizes 0 to 7.
					size := trial / 2
					fromCandidates := trial%2 == 0
					if fromCandidates && size > len(candidates) {
						size = len(candidates)
					}
					seen := make(map[int32]bool, size)
					var protectors []int32
					for len(protectors) < size {
						var u int32
						if fromCandidates {
							u = candidates[pick.Intn(len(candidates))]
						} else {
							u = pick.Int32n(p.Graph.NumNodes())
						}
						if rumor[u] || seen[u] {
							continue
						}
						seen[u] = true
						protectors = append(protectors, u)
					}
					saved := 0
					for _, seed := range realSeeds {
						res, err := diffusion.RunOPOAORealization(p.Graph, p.Rumors, protectors, seed, diffusion.Options{MaxHops: hops})
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range p.Ends {
							if res.Status[e] != diffusion.Infected {
								saved++
							}
						}
					}
					if got, want := set.Sigma(protectors), float64(saved)/float64(set.Samples); got != want {
						t.Fatalf("S = %v: Sigma × Samples = %v, CRN realizations save %d ends", protectors, got*float64(set.Samples), saved)
					}
				}
			})
		}
	}
}

// TestGreedyBitIdenticalToSketchSolve pins core.GreedyContext to the RIS
// path: for equal (Seed, Samples, MaxHops) the greedy and
// Build + SolveGreedyRIS cover the same RR sets, so they must select the
// same Protectors in the same order, with equal ProtectedEnds and
// Achieved. Both take algorithm 1's argmax over every node; the hep
// instance's backward search trees hold more than 300 nodes, so a greedy
// restricted to a smaller candidate pool fails here.
func TestGreedyBitIdenticalToSketchSolve(t *testing.T) {
	hep := hepProblem(t)
	trees, err := bridge.Build(hep.Graph, hep.Rumors, hep.Ends)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(trees.Invert().Candidates); n <= 300 {
		t.Fatalf("hep instance's search trees hold %d nodes, want more than 300", n)
	}
	for _, inst := range []struct {
		name string
		p    *core.Problem
	}{
		{"n300-seed41", testProblem(t, 300, 40, 41)},
		{"n400-seed5", testProblem(t, 400, 60, 5)},
		{"hep", hep},
	} {
		p := inst.p
		for _, samples := range []int{10, 32} {
			for _, hops := range []int{1, 31} {
				t.Run(fmt.Sprintf("%s/samples=%d/hops=%d", inst.name, samples, hops), func(t *testing.T) {
					const seed = 11
					got, err := core.Greedy(p, core.GreedyOptions{Samples: samples, Seed: seed, MaxHops: hops, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					set, err := Build(p, Options{Samples: samples, Seed: seed, MaxHops: hops, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					want, err := SolveGreedyRIS(p, set, SolveOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Protectors, want.Protectors) {
						t.Fatalf("greedy Protectors %v, sketch solve %v", got.Protectors, want.Protectors)
					}
					if got.ProtectedEnds != want.ProtectedEnds || got.Achieved != want.Achieved {
						t.Fatalf("greedy (protected, achieved) = (%v, %v), sketch solve (%v, %v)",
							got.ProtectedEnds, got.Achieved, want.ProtectedEnds, want.Achieved)
					}
					if got.Evaluations != want.Evaluations || !reflect.DeepEqual(got.Gains, want.Gains) {
						t.Fatalf("greedy (evaluations, gains) = (%d, %v), sketch solve (%d, %v)",
							got.Evaluations, got.Gains, want.Evaluations, want.Gains)
					}
				})
			}
		}
	}
}
