package rrset_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lcrb/internal/community"
	"lcrb/internal/core"
	"lcrb/internal/gen"
	"lcrb/internal/rng"
	"lcrb/internal/rrset"
)

// syntheticPairs fabricates pairs with random RR sets over maxNode nodes —
// no diffusion involved — so the cover sees many tied gains.
func syntheticPairs(src *rng.Source, numPairs, maxNode int) []rrset.Pair {
	var pairs []rrset.Pair
	for pi := 0; pi < numPairs; pi++ {
		nodes := src.SampleInt32(int32(maxNode), int32(1+src.Intn(min(4, maxNode))))
		slices.Sort(nodes)
		pairs = append(pairs, rrset.Pair{Realization: int32(pi), Nodes: nodes})
	}
	return pairs
}

// TestCoverPlainMatchesLazy holds the lazy bucket-queue loop to the plain
// loop that recounts every row every round: the same selection, gains and
// coverage, with no more evaluations, under random targets and selection
// caps.
func TestCoverPlainMatchesLazy(t *testing.T) {
	src := rng.New(31)
	for trial := 0; trial < 40; trial++ {
		ix := rrset.NewIndex(syntheticPairs(src, 1+src.Intn(300), 2+src.Intn(60)), 1+src.Intn(3))
		opts := rrset.CoverOptions{Target: 1 + src.Intn(ix.NumPairs), MaxSelect: 1 + src.Intn(20)}
		selects := 0
		opts.OnSelect = func(rrset.Cover) { selects++ }
		lazy, err := ix.Cover(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if selects != len(lazy.Selected) {
			t.Fatalf("trial %d: OnSelect fired %d times for %d selections", trial, selects, len(lazy.Selected))
		}
		opts.Plain, opts.OnSelect = true, nil
		plain, err := ix.Cover(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lazy.Selected, plain.Selected) || !reflect.DeepEqual(lazy.Gains, plain.Gains) || lazy.Covered != plain.Covered {
			t.Fatalf("trial %d: lazy %+v, plain %+v", trial, lazy, plain)
		}
		if lazy.Evaluations > plain.Evaluations {
			t.Fatalf("trial %d: lazy used %d evaluations, plain %d", trial, lazy.Evaluations, plain.Evaluations)
		}
	}
}

// TestCoverBudgetStopsBeforeCount pins the Budget hook: it runs before
// every row count, its error stops the cover with the selection so far,
// and Evaluations counts exactly the counts it allowed.
func TestCoverBudgetStopsBeforeCount(t *testing.T) {
	ix := rrset.NewIndex(syntheticPairs(rng.New(7), 200, 40), 1)
	opts := rrset.CoverOptions{Target: ix.NumPairs, MaxSelect: 40}
	for _, plain := range []bool{false, true} {
		opts.Plain = plain
		full, err := ix.Cover(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		stop := errors.New("stop")
		for budget := 0; budget < full.Evaluations; budget++ {
			capped := opts
			capped.Budget = func(evals int) error {
				if evals >= budget {
					return stop
				}
				return nil
			}
			c, err := ix.Cover(context.Background(), capped)
			if !errors.Is(err, stop) || c.Evaluations != budget {
				t.Fatalf("plain=%v budget %d: (%d evaluations, %v)", plain, budget, c.Evaluations, err)
			}
			if len(c.Selected) > len(full.Selected) || !slices.Equal(c.Selected, full.Selected[:len(c.Selected)]) {
				t.Fatalf("plain=%v budget %d: %v is not a prefix of %v", plain, budget, c.Selected, full.Selected)
			}
		}
	}
}

// hepProblem is the hep profile at scale 0.05 with a tenth of the Louvain
// community closest to 80 nodes as rumor seeds.
func hepProblem(b *testing.B) *core.Problem {
	b.Helper()
	net, err := gen.Hep(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: 1})
	comm := part.ClosestBySize(80)
	members := part.Members(comm)
	var rumors []int32
	for _, i := range rng.New(101).SampleInt32(int32(len(members)), int32(len(members)/10)) {
		rumors = append(rumors, members[i])
	}
	p, err := core.NewProblem(net.Graph, part.Assign(), comm, rumors)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// hepPairs samples n realizations of the hep instance on two workers.
func hepPairs(b *testing.B, p *core.Problem, n int) ([]rrset.Pair, int) {
	b.Helper()
	smp := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, core.DefaultGreedyHops, false)
	reals, err := smp.Draw(rrset.Seeds(7, n), nil, 2, func(int) error { return nil }, core.IsInterruption)
	if err != nil {
		b.Fatal(err)
	}
	var pairs []rrset.Pair
	baseline := 0
	for _, r := range reals {
		pairs = append(pairs, r.Pairs...)
		baseline += r.Baseline
	}
	return pairs, baseline
}

// BenchmarkSampleRealization times the sampler: one realization on the
// hep instance (the forward pass that fills the step-target table, then
// the level sweeps of every batch of bridge ends), with the scratch built
// once, as Draw does per worker. The footprints case is how incremental
// repair samples.
func BenchmarkSampleRealization(b *testing.B) {
	p := hepProblem(b)
	for _, footprints := range []bool{false, true} {
		b.Run(fmt.Sprintf("footprints=%v", footprints), func(b *testing.B) {
			sc := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, core.DefaultGreedyHops, footprints).NewScratch()
			seeds := rng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPairs, _, _ = sc.Sample(seeds.Uint64(), int32(i))
			}
		})
	}
}

// BenchmarkNewIndex times the node → pair inversion, CSR and bitset arena,
// of 128 hep realizations, serial and on two workers.
func BenchmarkNewIndex(b *testing.B) {
	pairs, _ := hepPairs(b, hepProblem(b), 128)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchIndex = rrset.NewIndex(pairs, workers)
			}
		})
	}
}

// BenchmarkCover times the greedy cover to α = 0.9 over 128 hep
// realizations, lazy against plain.
func BenchmarkCover(b *testing.B) {
	p := hepProblem(b)
	pairs, baseline := hepPairs(b, p, 128)
	ix := rrset.NewIndex(pairs, 2)
	target := p.RequiredEnds(0.9)*128 - baseline
	for _, plain := range []bool{false, true} {
		b.Run(fmt.Sprintf("plain=%v", plain), func(b *testing.B) {
			opts := rrset.CoverOptions{Target: target, MaxSelect: p.NumEnds(), Plain: plain}
			var c rrset.Cover
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, _ = ix.Cover(context.Background(), opts)
			}
			b.ReportMetric(float64(c.Evaluations), "evals")
		})
	}
}

// Sinks keep the benchmarked results live.
var (
	benchPairs []rrset.Pair
	benchIndex *rrset.Index
)
