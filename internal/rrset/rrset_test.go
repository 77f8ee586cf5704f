package rrset_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
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

// densePairs fabricates pairs whose RR sets each hold a third to two
// thirds of maxNode nodes, so the rows average far more than 4 pair bits
// per arena word and NewIndex builds the arena.
func densePairs(src *rng.Source, numPairs, maxNode int) []rrset.Pair {
	var pairs []rrset.Pair
	for pi := 0; pi < numPairs; pi++ {
		nodes := src.SampleInt32(int32(maxNode), int32(maxNode/3+1+src.Intn(maxNode/3+1)))
		slices.Sort(nodes)
		pairs = append(pairs, rrset.Pair{Realization: int32(pi), Nodes: nodes})
	}
	return pairs
}

// coverBothModes runs one cover with the arena on and again with it off,
// fails unless the two Covers, errors and OnSelect snapshots agree, and
// returns the cover with the snapshots it passed to OnSelect. It leaves
// the index with the arena off.
func coverBothModes(t *testing.T, ix *rrset.Index, opts rrset.CoverOptions) (rrset.Cover, []rrset.Cover, error) {
	t.Helper()
	var covers [2]rrset.Cover
	var snaps [2][]rrset.Cover
	var errs [2]error
	for m, arena := range []bool{true, false} {
		rrset.SetArena(ix, arena)
		o := opts
		o.OnSelect = func(c rrset.Cover) {
			c.Selected, c.Gains = slices.Clone(c.Selected), slices.Clone(c.Gains)
			snaps[m] = append(snaps[m], c)
		}
		covers[m], errs[m] = ix.Cover(context.Background(), o)
	}
	if !reflect.DeepEqual(covers[0], covers[1]) || !reflect.DeepEqual(snaps[0], snaps[1]) || errs[0] != errs[1] {
		t.Fatalf("opts %+v: arena %+v (%v), decrements %+v (%v)", opts, covers[0], errs[0], covers[1], errs[1])
	}
	return covers[0], snaps[0], errs[0]
}

// TestCoverModesBitIdentical holds the density rule and the two gain
// kernels to each other: NewIndex builds the arena on dense pairs and
// none on sparse ones, and on both inputs the arena sweep and the exact
// gain decrements give DeepEqual covers, lazy and plain, under random
// targets and selection caps.
func TestCoverModesBitIdentical(t *testing.T) {
	src := rng.New(57)
	for _, tc := range []struct {
		name  string
		pairs []rrset.Pair
		arena bool
	}{
		{"dense", densePairs(src, 300, 20), true},
		{"sparse", syntheticPairs(src, 300, 2000), false},
	} {
		ix := rrset.NewIndex(tc.pairs, 2)
		if (ix.Arena != nil) != tc.arena {
			t.Fatalf("%s: arena present = %v, want %v (%d rows, %d words, %d entries)",
				tc.name, ix.Arena != nil, tc.arena, len(ix.Nodes), ix.Words, len(ix.Pairs))
		}
		for trial := 0; trial < 10; trial++ {
			opts := rrset.CoverOptions{Target: 1 + src.Intn(ix.NumPairs), MaxSelect: 1 + src.Intn(40), Plain: trial%2 == 1}
			if _, _, err := coverBothModes(t, ix, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCoverPlainMatchesLazy holds the lazy bucket-queue loop to the plain
// loop that recounts every row every round: the same selection, gains and
// coverage, with no more evaluations, under random targets and selection
// caps, each run with the arena on and off.
func TestCoverPlainMatchesLazy(t *testing.T) {
	src := rng.New(31)
	for trial := 0; trial < 40; trial++ {
		ix := rrset.NewIndex(syntheticPairs(src, 1+src.Intn(300), 2+src.Intn(60)), 1+src.Intn(3))
		opts := rrset.CoverOptions{Target: 1 + src.Intn(ix.NumPairs), MaxSelect: 1 + src.Intn(20)}
		lazy, snaps, err := coverBothModes(t, ix, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != len(lazy.Selected) {
			t.Fatalf("trial %d: OnSelect fired %d times for %d selections", trial, len(snaps), len(lazy.Selected))
		}
		opts.Plain = true
		plain, _, err := coverBothModes(t, ix, opts)
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

// TestCoverCancelStopsWithPrefix pins the cover's cancellation contract:
// the context is checked before every recount and selection, so canceling
// it from OnSelect at the k-th selection stops the cover with exactly the
// first k selections of the uncanceled cover and context.Canceled — lazy
// and plain, with the arena on and off, on a dense and a sparse index.
func TestCoverCancelStopsWithPrefix(t *testing.T) {
	for _, pairs := range [][]rrset.Pair{syntheticPairs(rng.New(7), 200, 40), densePairs(rng.New(8), 200, 24)} {
		ix := rrset.NewIndex(pairs, 1)
		opts := rrset.CoverOptions{Target: ix.NumPairs, MaxSelect: 40}
		for _, plain := range []bool{false, true} {
			opts.Plain = plain
			full, _, err := coverBothModes(t, ix, opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k < len(full.Selected); k++ {
				for _, arena := range []bool{true, false} {
					rrset.SetArena(ix, arena)
					ctx, cancel := context.WithCancel(context.Background())
					capped := opts
					capped.OnSelect = func(c rrset.Cover) {
						if len(c.Selected) == k {
							cancel()
						}
					}
					c, err := ix.Cover(ctx, capped)
					cancel()
					if !errors.Is(err, context.Canceled) || !slices.Equal(c.Selected, full.Selected[:k]) {
						t.Fatalf("plain=%v arena=%v k=%d: (%v, %v), want the prefix %v and context.Canceled",
							plain, arena, k, c.Selected, err, full.Selected[:k])
					}
				}
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
	return communityProblem(b, net, 80, 10)
}

// enron caches the paper-scale Enron problem across benchmarks: generating
// the network and detecting its communities takes about a second.
var enron struct {
	sync.Once
	p   *core.Problem
	err error
}

// enronProblem is the Enron profile at scale 1 (36,692 nodes) with a
// twentieth of the Louvain community closest to the paper's |C| = 2631 as
// rumor seeds: the offline-enron benchmark's instance and rumor fraction.
func enronProblem(b *testing.B) *core.Problem {
	b.Helper()
	enron.Do(func() {
		net, err := gen.Enron(1, 0x0601)
		if err != nil {
			enron.err = err
			return
		}
		enron.p = communityProblem(b, net, 2631, 20)
	})
	if enron.err != nil {
		b.Fatal(enron.err)
	}
	return enron.p
}

// communityProblem takes the Louvain community of net closest to size
// nodes and one in rumorDiv of its members as rumor seeds.
func communityProblem(b *testing.B, net *gen.Network, size int32, rumorDiv int) *core.Problem {
	b.Helper()
	part := community.Louvain(net.Graph, community.LouvainOptions{Seed: 1})
	comm := part.ClosestBySize(size)
	members := part.Members(comm)
	var rumors []int32
	for _, i := range rng.New(101).SampleInt32(int32(len(members)), int32(len(members)/rumorDiv)) {
		rumors = append(rumors, members[i])
	}
	p, err := core.NewProblem(net.Graph, part.Assign(), comm, rumors)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// samplePairs samples n realizations of p on two workers.
func samplePairs(b *testing.B, p *core.Problem, n int) ([]rrset.Pair, int) {
	b.Helper()
	smp := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, core.DefaultGreedyHops, false)
	reals, err := smp.Draw(context.Background(), rrset.Seeds(7, n), nil, 2)
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

// BenchmarkSampleRealization times the sampler: one realization (the
// forward pass that fills the step-target table, then the level sweeps of
// every batch of bridge ends), with the scratch built once, as Draw does
// per worker, on the hep instance and at the paper's Enron scale. The
// footprints case is how incremental repair samples.
func BenchmarkSampleRealization(b *testing.B) {
	for _, bc := range []struct {
		name       string
		problem    func(*testing.B) *core.Problem
		footprints bool
	}{
		{"hep", hepProblem, false},
		{"hep", hepProblem, true},
		{"enron", enronProblem, false},
	} {
		b.Run(fmt.Sprintf("%s/footprints=%v", bc.name, bc.footprints), func(b *testing.B) {
			p := bc.problem(b)
			sc := rrset.NewSampler(p.Graph, p.Rumors, p.Ends, core.DefaultGreedyHops, bc.footprints).NewScratch()
			seeds := rng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPairs, _, _ = sc.Sample(seeds.Uint64(), int32(i))
			}
		})
	}
}

// benchCase is a benchmarked sketch: R realizations of a problem. The
// hep case's rows are dense and keep the bitset arena; the Enron cases
// at the paper's scale are sparse and count gains by decrement.
type benchCase struct {
	name    string
	problem func(*testing.B) *core.Problem
	samples int
}

var benchCases = []benchCase{
	{"hep/R=128", hepProblem, 128},
	{"enron/R=4", enronProblem, 4},
	{"enron/R=16", enronProblem, 16},
}

// BenchmarkNewIndex times the node → pair inversion, CSR and (when dense)
// bitset arena, of each benchmark case, serial and on two workers.
func BenchmarkNewIndex(b *testing.B) {
	for _, bc := range benchCases {
		pairs, _ := samplePairs(b, bc.problem(b), bc.samples)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchIndex = rrset.NewIndex(pairs, workers)
				}
			})
		}
	}
	benchIndex = nil // let the last Enron index go before later benchmarks
}

// BenchmarkCover times the greedy cover to α = 0.9 of each benchmark case,
// lazy against plain.
func BenchmarkCover(b *testing.B) {
	for _, bc := range benchCases {
		p := bc.problem(b)
		pairs, baseline := samplePairs(b, p, bc.samples)
		ix := rrset.NewIndex(pairs, 2)
		target := p.RequiredEnds(0.9)*bc.samples - baseline
		for _, plain := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/plain=%v", bc.name, plain), func(b *testing.B) {
				opts := rrset.CoverOptions{Target: target, MaxSelect: p.NumEnds(), Plain: plain}
				var c rrset.Cover
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c, _ = ix.Cover(context.Background(), opts)
				}
				b.ReportMetric(float64(c.Evaluations), "evals")
				b.ReportMetric(float64(len(ix.Pairs))/float64(len(ix.Nodes)*ix.Words), "bits/word")
			})
		}
	}
}

// Sinks keep the benchmarked results live.
var (
	benchPairs []rrset.Pair
	benchIndex *rrset.Index
)
