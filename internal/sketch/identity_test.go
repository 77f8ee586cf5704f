package sketch

import (
	"fmt"
	"testing"

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
				candidates := set.Candidates()
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
